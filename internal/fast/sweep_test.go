package fast

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hare/internal/brute"
	"hare/internal/gen"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// randomCuts returns up to three random cut points of [0, n), sorted, between
// 0 and n; equal neighbours make empty slices.
func randomCuts(r *rand.Rand, n int) []int {
	cuts := []int{0, n}
	for k := r.Intn(4); k > 0; k-- {
		cuts = append(cuts, r.Intn(n+1))
	}
	sort.Ints(cuts)
	return cuts
}

// checkSweepWindow holds the sweep's slot recycling to its premise after a
// slice ending at last edge to−1: a released record is all-zero, so a
// neighbour that re-enters the window starts from nothing, and exactly the
// neighbours of the edges still in the window hold a slot.
func checkSweepWindow(t *testing.T, s *Scratch, su temporal.Seq, delta temporal.Timestamp, to int) {
	t.Helper()
	for _, k := range s.free {
		if s.nbrs[k] != (nbrWindow{}) {
			t.Fatalf("released slot %d is not zero: %+v", k, s.nbrs[k])
		}
	}
	start := to - 1
	for start > 0 && su.Time[to-1]-su.Time[start-1] <= delta {
		start--
	}
	live := map[temporal.NodeID]bool{}
	for _, v := range su.Other[start:to] {
		live[v] = true
		if s.mark[v] != s.epoch {
			t.Fatalf("neighbour %d is in the window without a slot", v)
		}
	}
	if held := len(s.nbrs) - len(s.free); held != len(live) {
		t.Fatalf("%d slots held, %d neighbours in the window", held, len(live))
	}
}

// The sweep must find, at every center, Algorithm 1's star and pair cells
// and brute force's all-triples tally, whether it runs the whole sequence
// or any partition of it by last edge.
func TestSweepStarPairMatchesAlgorithm1(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	s := NewScratch()
	for _, tc := range starPairCorpus() {
		g, delta := tc.g, tc.delta
		var triples uint64
		for u := 0; u < g.NumNodes(); u++ {
			su := g.Seq(temporal.NodeID(u))
			n := su.Len()
			var want motif.Counts
			CountStarPairRange(su, delta, &want, s, 0, n)
			wantAll := brute.CenterTriples(g, temporal.NodeID(u), delta)
			for _, cuts := range [][]int{{0, n}, randomCuts(r, n), randomCuts(r, n), randomCuts(r, n)} {
				var got motif.Counts
				var all [8]uint64
				for i := 0; i+1 < len(cuts); i++ {
					SweepStarPairRange(su, delta, &got, &all, s, cuts[i], cuts[i+1])
					if n >= 3 && cuts[i] < cuts[i+1] {
						checkSweepWindow(t, s, su, delta, cuts[i+1])
					}
				}
				if got.Star != want.Star || got.Pair != want.Pair || all != wantAll {
					t.Fatalf("%s center %d cuts %v:\n star %v\n want %v\n pair %v\n want %v\n all %v\n want %v",
						tc.name, u, cuts, got.Star, want.Star, got.Pair, want.Pair, all, wantAll)
				}
			}
			triples += want.Star.Total() + want.Pair.Total()
		}
		if triples == 0 {
			t.Fatalf("%s: no star or pair triples, the corpus checks nothing", tc.name)
		}
		var got motif.Counts
		if CountInto(g, delta, &got, s); got != *Count(g, delta) {
			t.Fatalf("%s: CountInto (the sweep) differs from Count (Algorithm 1)", tc.name)
		}
	}
}

// The sweep's steady state is as allocation free as Algorithm 1's (see
// TestSteadyStateZeroAllocsPerCenter): its neighbour records reuse the
// scratch's slots once they have grown to the widest window.
func TestSweepSteadyStateZeroAllocsPerCenter(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := randomGraph(r, 40, 3000, 200)
	const delta = 60
	s := NewScratch()
	s.Grow(g.NumNodes())
	counts := &motif.Counts{}
	var all [8]uint64
	pass := func() {
		for u := 0; u < g.NumNodes(); u++ {
			su := g.Seq(temporal.NodeID(u))
			SweepStarPairRange(su, delta, counts, &all, s, 0, su.Len())
			CountTriNode(g, temporal.NodeID(u), delta, &counts.Tri, true)
		}
	}
	if avg := testing.AllocsPerRun(5, pass); avg != 0 {
		t.Fatalf("steady-state pass allocates %.1f times, want 0", avg)
	}
}

// BenchmarkStarPair times FAST-Star's star and pair cells over every center
// on one thread, by Algorithm 1's rescan (CountStarPairRange) and by the
// sweep (SweepStarPairRange). The graphs are the end-to-end benchmark's
// batch input (redditcomments:0.5) and serving input (wikitalk) at δs around
// its workloads', and collegemsg at δ = 0: there the rescan skips every
// first edge in O(1) while the sweep still pushes and pops every edge.
func BenchmarkStarPair(b *testing.B) {
	inputs := []struct {
		name, dataset string
		scale         float64
		deltas        []temporal.Timestamp
	}{
		{"redditcomments:0.5", "redditcomments", 0.5, []temporal.Timestamp{300, 600, 900}},
		{"wikitalk", "wikitalk", 1, []temporal.Timestamp{300, 600, 900}},
		{"collegemsg", "collegemsg", 1, []temporal.Timestamp{0}},
	}
	graphs := make([]*temporal.Graph, len(inputs))
	for i, in := range inputs {
		cfg, err := gen.DatasetByName(in.dataset)
		if err != nil {
			b.Fatal(err)
		}
		if graphs[i], err = gen.Generate(gen.Scaled(cfg, in.scale)); err != nil {
			b.Fatal(err)
		}
	}
	kernels := []struct {
		name  string
		count func(su temporal.Seq, delta temporal.Timestamp, counts *motif.Counts, all *[8]uint64, s *Scratch)
	}{
		{"rescan", func(su temporal.Seq, delta temporal.Timestamp, counts *motif.Counts, _ *[8]uint64, s *Scratch) {
			CountStarPairRange(su, delta, counts, s, 0, su.Len())
		}},
		{"sweep", func(su temporal.Seq, delta temporal.Timestamp, counts *motif.Counts, all *[8]uint64, s *Scratch) {
			SweepStarPairRange(su, delta, counts, all, s, 0, su.Len())
		}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			for i, in := range inputs {
				g := graphs[i]
				for _, delta := range in.deltas {
					b.Run(fmt.Sprintf("%s/delta=%d", in.name, delta), func(b *testing.B) {
						s := NewScratch()
						s.Grow(g.NumNodes())
						var counts motif.Counts
						var all [8]uint64
						for b.Loop() {
							for u := 0; u < g.NumNodes(); u++ {
								k.count(g.Seq(temporal.NodeID(u)), delta, &counts, &all, s)
							}
						}
					})
				}
			}
		})
	}
}

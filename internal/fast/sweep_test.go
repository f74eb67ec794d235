package fast

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hare/internal/brute"
	"hare/internal/cputime"
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

// decodeSweepEdges turns fuzz bytes into a small multigraph on 8 nodes: each
// 3-byte group is an edge u→v placed its third byte after the previous edge,
// so a gap byte above δ ends a burst and a 0 makes a tie. Inputs are cut to
// 200 edges: brute force's all-triples tally is cubic in a window, and a
// fuzzed window can hold every edge.
func decodeSweepEdges(data []byte) []temporal.Edge {
	var edges []temporal.Edge
	var now temporal.Timestamp
	for ; len(data) >= 3 && len(edges) < 200; data = data[3:] {
		u, v := temporal.NodeID(data[0]%8), temporal.NodeID(data[1]%8)
		if u == v {
			v = (v + 1) % 8
		}
		now += temporal.Timestamp(data[2])
		edges = append(edges, temporal.Edge{From: u, To: v, Time: now})
	}
	return edges
}

// FuzzSweepStarPair: any small multigraph, any δ ≥ 0 and one cut by last
// edge; at every center the two slices of the sweep sum to Algorithm 1's
// star and pair cells and to brute force's all-triples tally, and each
// slice leaves the scratch holding exactly its last edge's window.
func FuzzSweepStarPair(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 1, 1, 0, 1, 0, 1, 40, 2, 0, 0, 0, 3, 2}, int64(5), uint16(2))
	f.Add([]byte{0, 1, 9, 1, 0, 9, 0, 2, 9, 0, 1, 0, 2, 0, 0}, int64(0), uint16(3))
	f.Add([]byte{0, 1, 200, 0, 2, 255, 3, 0, 1, 0, 4, 1, 1, 0, 255}, int64(math.MaxInt64), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, delta int64, cut uint16) {
		if delta < 0 {
			delta = -(delta + 1) // fold onto [0, MaxInt64], both ends included
		}
		g := temporal.FromEdges(decodeSweepEdges(data))
		s := NewScratch()
		for u := 0; u < g.NumNodes(); u++ {
			su := g.Seq(temporal.NodeID(u))
			n := su.Len()
			var want, got motif.Counts
			CountStarPairRange(su, delta, &want, s, 0, n)
			wantAll := brute.CenterTriples(g, temporal.NodeID(u), delta)
			var all [8]uint64
			p := int(cut) % (n + 1)
			for _, sl := range [][2]int{{0, p}, {p, n}} {
				SweepStarPairRange(su, delta, &got, &all, s, sl[0], sl[1])
				if n >= 3 && sl[0] < sl[1] {
					checkSweepWindow(t, s, su, delta, sl[1])
				}
			}
			if got.Star != want.Star || got.Pair != want.Pair || all != wantAll {
				t.Fatalf("center %d δ=%d cut %d of %d:\n star %v\n want %v\n pair %v\n want %v\n all %v\n want %v",
					u, delta, p, n, got.Star, want.Star, got.Pair, want.Pair, all, wantAll)
			}
		}
	})
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
// sweep (SweepStarPairRange), and reports CPU time beside wall time. The
// graphs are the end-to-end benchmark's batch input (redditcomments:0.5) and
// serving input (wikitalk) at δs around its workloads', and collegemsg at
// δ = 0: there the rescan skips every first edge in O(1), and the sweep
// finds nearly every window empty and jumps over it, reading only
// timestamps.
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
						defer cputime.Report(b)()
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

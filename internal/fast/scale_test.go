package fast

import (
	"math/rand"
	"slices"
	"testing"

	"hare/internal/gen"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// servedGraph generates a dataset at a scale as the end-to-end benchmark
// serves it.
func servedGraph(t *testing.T, name string, scale float64) *temporal.Graph {
	t.Helper()
	cfg, err := gen.DatasetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Scaled(cfg, scale))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The sweep must find Algorithm 1's star and pair cells at every center of
// the graphs the end-to-end benchmark serves (wikitalk) and batch-counts
// (redditcomments:0.5), at the δs around its workloads'. The top-degree hubs,
// whose windows are the widest, are also cut by last edge at random points,
// as the engine's intra-node stage cuts them; their slices must sum to the
// whole sweep, all-triples tally included, and each must leave the scratch
// holding exactly its last edge's window.
func TestSweepMatchesAlgorithm1AtServedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("served-scale graphs; run without -short")
	}
	r := rand.New(rand.NewSource(49))
	for _, in := range []struct {
		dataset string
		scale   float64
	}{{"wikitalk", 1}, {"redditcomments", 0.5}} {
		g := servedGraph(t, in.dataset, in.scale)
		nodes := make([]temporal.NodeID, g.NumNodes())
		for u := range nodes {
			nodes[u] = temporal.NodeID(u)
		}
		slices.SortFunc(nodes, func(a, b temporal.NodeID) int { return g.Degree(b) - g.Degree(a) })
		hubs := nodes[:8]
		s := NewScratch()
		s.Grow(g.NumNodes())
		for _, delta := range []temporal.Timestamp{300, 600, 900} {
			var triples uint64
			for u := 0; u < g.NumNodes(); u++ {
				su := g.Seq(temporal.NodeID(u))
				var want, got motif.Counts
				var all [8]uint64
				CountStarPairRange(su, delta, &want, s, 0, su.Len())
				SweepStarPairRange(su, delta, &got, &all, s, 0, su.Len())
				if got.Star != want.Star || got.Pair != want.Pair {
					t.Fatalf("%s δ=%d center %d (degree %d):\n star %v\n want %v\n pair %v\n want %v",
						in.dataset, delta, u, su.Len(), got.Star, want.Star, got.Pair, want.Pair)
				}
				triples += want.Star.Total() + want.Pair.Total()
			}
			if triples == 0 {
				t.Fatalf("%s δ=%d: no star or pair triples, the check checks nothing", in.dataset, delta)
			}
			for _, h := range hubs {
				su := g.Seq(h)
				n := su.Len()
				var whole motif.Counts
				var wholeAll [8]uint64
				SweepStarPairRange(su, delta, &whole, &wholeAll, s, 0, n)
				cuts := []int{0, n}
				for k := 0; k < 4; k++ {
					cuts = append(cuts, 1+r.Intn(n-1))
				}
				slices.Sort(cuts)
				var got motif.Counts
				var all [8]uint64
				for i := 0; i+1 < len(cuts); i++ {
					SweepStarPairRange(su, delta, &got, &all, s, cuts[i], cuts[i+1])
					if cuts[i] < cuts[i+1] {
						checkSweepWindow(t, s, su, delta, cuts[i+1])
					}
				}
				if got != whole || all != wholeAll {
					t.Fatalf("%s δ=%d hub %d (degree %d) cut at %v: slices differ from the whole sweep",
						in.dataset, delta, h, n, cuts)
				}
			}
		}
	}
}

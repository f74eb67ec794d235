package higher

import (
	"math/rand"
	"testing"

	"hare/internal/brute"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// bruteStar4 enumerates 4-node star instances directly: ordered edge triples
// within δ, all incident to a common center, with three distinct far
// endpoints.
func bruteStar4(g *temporal.Graph, delta temporal.Timestamp) Star4Counter {
	var out Star4Counter
	edges := g.Edges()
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			if edges[j].Time-edges[i].Time > delta {
				break
			}
			for k := j + 1; k < len(edges); k++ {
				if edges[k].Time-edges[i].Time > delta {
					break
				}
				e1, e2, e3 := edges[i], edges[j], edges[k]
				for _, u := range []temporal.NodeID{e1.From, e1.To} {
					if !incident(e2, u) || !incident(e3, u) {
						continue
					}
					o1, o2, o3 := other(e1, u), other(e2, u), other(e3, u)
					if o1 == o2 || o1 == o3 || o2 == o3 {
						continue
					}
					out[motif.PairIndex(dir(e1, u), dir(e2, u), dir(e3, u))]++
				}
			}
		}
	}
	return out
}

func incident(e temporal.Edge, u temporal.NodeID) bool { return e.From == u || e.To == u }

func other(e temporal.Edge, u temporal.NodeID) temporal.NodeID {
	if e.From == u {
		return e.To
	}
	return e.From
}

func dir(e temporal.Edge, u temporal.NodeID) motif.Dir {
	if e.From == u {
		return motif.Out
	}
	return motif.In
}

func randomGraph(r *rand.Rand, nodes, edges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	return b.Build()
}

func TestKnownStar4(t *testing.T) {
	// A center with one edge to each of three distinct leaves: one 4-node
	// star, pattern (o, in, o).
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 2, To: 0, Time: 2},
		{From: 0, To: 3, Time: 3},
	})
	c := Count(g, 10)
	if c.Total() != 1 {
		t.Fatalf("total = %d, want 1\n%s", c.Total(), &c)
	}
	if got := c.At(motif.Out, motif.In, motif.Out); got != 1 {
		t.Fatalf("S4[o,in,o] = %d, want 1", got)
	}
	// Outside the window: nothing.
	if c := Count(g, 1); c.Total() != 0 {
		t.Fatalf("δ=1 total = %d, want 0", c.Total())
	}
}

func TestThreeNodePatternsExcluded(t *testing.T) {
	// A 3-node star (two edges to the same leaf) and a pair must not appear.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 0, To: 1, Time: 2},
		{From: 0, To: 2, Time: 3},
	})
	if c := Count(g, 10); c.Total() != 0 {
		t.Fatalf("3-node pattern counted as 4-node star: %s", &c)
	}
}

func TestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 3+r.Intn(12), 1+r.Intn(150), 1+int64(r.Intn(40)))
		delta := int64(r.Intn(25))
		want := bruteStar4(g, delta)
		got := Count(g, delta)
		if got != want {
			t.Fatalf("trial %d δ=%d:\n got %s\nwant %s", trial, delta, &got, &want)
		}
	}
}

func TestTieHeavyMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(r, 4+r.Intn(6), 1+r.Intn(120), 1+int64(r.Intn(4)))
		delta := int64(r.Intn(4))
		want := bruteStar4(g, delta)
		got := Count(g, delta)
		if got != want {
			t.Fatalf("trial %d: got %s want %s", trial, &got, &want)
		}
	}
}

// The decomposition identity: All = Pair + 3-node stars + 4-node stars, per
// direction pattern, per center, with All enumerated by brute force.
func TestDecompositionIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	g := randomGraph(r, 10, 300, 60)
	delta := int64(20)
	scratch := fast.NewScratch()
	for u := 0; u < g.NumNodes(); u++ {
		all := brute.CenterTriples(g, temporal.NodeID(u), delta)
		s4, counts := CountNode(g, temporal.NodeID(u), delta, scratch)
		for i := 0; i < 8; i++ {
			d1, d2, d3 := motif.PairDirs(i)
			sum := s4[i] + counts.Pair.At(d1, d2, d3) +
				counts.Star.At(motif.StarI, d1, d2, d3) +
				counts.Star.At(motif.StarII, d1, d2, d3) +
				counts.Star.At(motif.StarIII, d1, d2, d3)
			if sum != all[i] {
				t.Fatalf("center %d pattern %d: decomposition %d != all %d", u, i, sum, all[i])
			}
		}
	}
}

func TestCounterHelpers(t *testing.T) {
	var c Star4Counter
	c[motif.PairIndex(motif.In, motif.In, motif.Out)] = 3
	var o Star4Counter
	o[motif.PairIndex(motif.In, motif.In, motif.Out)] = 4
	c.Add(&o)
	if c.At(motif.In, motif.In, motif.Out) != 7 || c.Total() != 7 {
		t.Fatal("Add/At/Total wrong")
	}
	if s := c.String(); len(s) == 0 {
		t.Fatal("empty String")
	}
}

func TestEmptyAndTiny(t *testing.T) {
	if c := Count(temporal.FromEdges(nil), 10); c.Total() != 0 {
		t.Fatal("empty graph counted")
	}
	g := temporal.FromEdges([]temporal.Edge{{From: 0, To: 1, Time: 0}, {From: 0, To: 2, Time: 1}})
	if c := Count(g, 10); c.Total() != 0 {
		t.Fatal("2-edge graph counted")
	}
}

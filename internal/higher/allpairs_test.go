package higher

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// triangleOf builds the one triangle FAST-Tri tallies in TriCounter cell i:
// owner 0 meets 1 by e_i and 2 by e_j, e_k joins 1 and 2, each edge pointing
// away from its reference node (0 for e_i and e_j, 1 for e_k) when its
// direction is Out, and the times — so the edge IDs — order the three edges
// as the cell's type says.
func triangleOf(i int) *temporal.Graph {
	typ, di, dj, dk := motif.TriCell(i)
	edge := func(u, v temporal.NodeID, d motif.Dir, t temporal.Timestamp) temporal.Edge {
		if d == motif.Out {
			return temporal.Edge{From: u, To: v, Time: t}
		}
		return temporal.Edge{From: v, To: u, Time: t}
	}
	var ti, tj, tk temporal.Timestamp
	switch typ {
	case motif.TriI: // e_k before both
		tk, ti, tj = 0, 1, 2
	case motif.TriII: // e_k between
		ti, tk, tj = 0, 1, 2
	default: // e_k after both
		ti, tj, tk = 0, 1, 2
	}
	return temporal.FromEdges([]temporal.Edge{edge(0, 1, di, ti), edge(0, 2, dj, tj), edge(1, 2, dk, tk)})
}

// The correction map, cell by cell: the triangle of each FAST-Tri cell is,
// summed over its three edges as pivots, exactly triPaths' three slots of
// same-far-end leg pairs, and no path at all.
func TestTriangleCorrectionMap(t *testing.T) {
	scratch := fast.GetScratch(3)
	defer fast.PutScratch(scratch)
	for i := range triPaths {
		g := triangleOf(i)
		var wantTri motif.TriCounter
		wantTri[i] = 1
		if tri := engine.CountCategoryRange(g, 10, engine.Options{Workers: 1}, 0, g.NumIncidences(), motif.CategoryTri).Tri; tri != wantTri {
			t.Fatalf("cell %d: the built triangle lands in FAST-Tri cells %v", i, tri)
		}
		var diff, same LegPairs
		for e := 0; e < g.NumEdges(); e++ {
			CountLegPairs(g, temporal.EdgeID(e), 10, AllLegOrders, scratch, &diff, &same)
		}
		var got, want PathCounter
		got.addPaths(&same)
		for _, l := range triPaths[i] {
			want[l]++
		}
		if got != want || diff != (LegPairs{}) {
			t.Fatalf("cell %d (%v): same-far-end slots %v, map says %v; diff %v", i, g.Edges(), got.Labels(), want.Labels(), diff)
		}
		if p := CountPath4(g, 10, Options{Workers: 1}); p != (PathCounter{}) {
			t.Fatalf("cell %d: a lone triangle counts %d paths", i, p.Total())
		}
	}
	// The range form pairs edge IDs [lo, hi) with incidences [2lo, 2hi),
	// which holds only if every edge has exactly two incidences.
	loops := sweepCase{"self-loops", []temporal.Edge{{From: 0, To: 0, Time: 0}, {From: 0, To: 1, Time: 1},
		{From: 1, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 2, Time: 3}}, 5}
	for _, c := range append(sweepCorpus(), loops) {
		if g := temporal.FromEdges(c.edges); g.NumIncidences() != 2*g.NumEdges() {
			t.Fatalf("%s: %d incidences for %d edges", c.name, g.NumIncidences(), g.NumEdges())
		}
	}
}

// hubCut returns an edge ID lo whose incidence position 2·lo lies strictly
// inside the span of g's largest hub, so the two ranges it separates each
// count a share of that hub's triangles.
func hubCut(t *testing.T, r *rand.Rand, g *temporal.Graph) int {
	t.Helper()
	hub := temporal.NodeID(0)
	for u := range g.NumNodes() {
		if g.Degree(temporal.NodeID(u)) > g.Degree(hub) {
			hub = temporal.NodeID(u)
		}
	}
	var cuts []int
	for p := 0; p < g.NumIncidences(); p += 2 {
		if u, off := g.Incidence(p); u == hub && off > 0 {
			cuts = append(cuts, p/2)
		}
	}
	if len(cuts) == 0 {
		t.Fatalf("hub %d of degree %d has no even position inside it", hub, g.Degree(hub))
	}
	return cuts[r.Intn(len(cuts))]
}

// A path4 partial is meaningless alone, so the partition is the contract:
// 2–5-way random cuts of the edge IDs, one always inside the largest hub's
// incidences, at 1, 2 and 3 workers with every hub sliced (thrd 1), the
// outer bounds overshooting, must sum to CountPaths and to brute force.
func TestPath4RangePartition(t *testing.T) {
	r := rand.New(rand.NewSource(3701))
	for trial := 0; trial < 10; trial++ {
		g := hubGraph(r, 5+r.Intn(10), 30+r.Intn(60), 40+r.Intn(40), 1+int64(r.Intn(30)))
		delta := temporal.Timestamp(r.Intn(25))
		want := CountPaths(g, delta)
		if brute := brutePaths(g, delta); brute != want {
			t.Fatalf("trial %d: CountPaths %d, brute force %d", trial, want.Total(), brute.Total())
		}
		m := g.NumEdges()
		for _, workers := range []int{1, 2, 3} {
			opts := Options{Workers: workers, DegreeThreshold: 1, ChunkSize: 1 + r.Intn(8)}
			cuts := []int{hubCut(t, r, g)}
			for k := 1 + r.Intn(4); len(cuts) < k; {
				cuts = append(cuts, r.Intn(m+1))
			}
			sort.Ints(cuts)
			cuts = append(append([]int{-r.Intn(4)}, cuts...), m+r.Intn(4))
			var got PathCounter
			for i := 0; i+1 < len(cuts); i++ {
				part := CountPath4Range(g, delta, opts, cuts[i], cuts[i+1])
				got.Add(&part)
				if inverted := CountPath4Range(g, delta, opts, cuts[i+1], cuts[i]); inverted != (PathCounter{}) {
					t.Fatalf("trial %d: inverted range [%d, %d) counted %d", trial, cuts[i+1], cuts[i], inverted.Total())
				}
			}
			if got != want {
				t.Fatalf("trial %d workers=%d cuts %v: partials sum to %d paths, want %d\n got %v\nwant %v",
					trial, workers, cuts, got.Total(), want.Total(), got.Labels(), want.Labels())
			}
		}
	}
}

// The merged walks, pivot by pivot: addLegPairs alone must fill exactly the
// cells of CountLegPairs' diff and same together, on the sweep corpus (also
// at δ = 2^40, where every window is a whole sequence) and on 300 random
// multigraphs over a handful of nodes.
func TestAddLegPairsMatchesSweep(t *testing.T) {
	cases := sweepCorpus()
	for _, c := range sweepCorpus() {
		cases = append(cases, sweepCase{c.name + "/delta=2^40", c.edges, 1 << 40})
	}
	r := rand.New(rand.NewSource(3801))
	for i := 0; i < 300; i++ {
		cases = append(cases, sweepCase{fmt.Sprintf("multigraph%d", i),
			edgesOf(randomGraph(r, 2+r.Intn(8), 1+r.Intn(60), 1+int64(r.Intn(20)))), int64(r.Intn(12))})
	}
	for _, c := range cases {
		g := temporal.FromEdges(c.edges)
		pos := temporal.EdgePositions(g)
		scratch := fast.GetScratch(g.NumNodes())
		for id := 0; id < g.NumEdges(); id++ {
			e := temporal.EdgeID(id)
			var diff, same, want, got LegPairs
			CountLegPairs(g, e, c.delta, AllLegOrders, scratch, &diff, &same)
			want.add(&diff)
			want.add(&same)
			addLegPairs(g, pos, e, c.delta, &got)
			if got != want {
				t.Fatalf("%s pivot %d (%v) δ=%d:\n walks %v\n sweep %v", c.name, id, g.Edge(e), c.delta, got, want)
			}
		}
		fast.PutScratch(scratch)
	}
}

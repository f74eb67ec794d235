package higher

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

// pairCut returns an edge ID lo strictly inside the pivot list of g's
// heaviest node pair, so the two ranges it separates each hold some of that
// pair's pivots, and a unit straddles the cut wherever the pivots on either
// side lie within δ.
func pairCut(t *testing.T, r *rand.Rand, g *temporal.Graph) int {
	t.Helper()
	var heavy temporal.Seq
	for e := 0; e < g.NumEdges(); e++ {
		if ps := g.Between(g.Src()[e], g.Dst()[e]); ps.Len() > heavy.Len() {
			heavy = ps
		}
	}
	if heavy.Len() < 2 {
		t.Fatalf("no node pair of %d edges has two", g.NumEdges())
	}
	return int(heavy.ID[1+r.Intn(heavy.Len()-1)])
}

// A path4 partial is meaningless alone, so the partition is the contract:
// 3–6-way random cuts of the edge IDs, one always inside the largest hub's
// incidences and one between two pivots of the heaviest node pair, at 1, 2
// and 3 workers with every hub sliced (thrd 1), the outer bounds
// overshooting, must sum to CountPaths and to brute force. The last trial
// is the heavy pair, whose units a cut and the EdgeID blocks both split.
func TestPath4RangePartition(t *testing.T) {
	r := rand.New(rand.NewSource(3701))
	for trial := 0; trial < 11; trial++ {
		g := hubGraph(r, 5+r.Intn(10), 30+r.Intn(60), 40+r.Intn(40), 1+int64(r.Intn(30)))
		delta := temporal.Timestamp(r.Intn(25))
		if trial == 10 {
			g, delta = temporal.FromEdges(heavyPair(r)), 3
		}
		want := CountPaths(g, delta)
		if brute := brutePaths(g, delta); brute != want {
			t.Fatalf("trial %d: CountPaths %d, brute force %d", trial, want.Total(), brute.Total())
		}
		m := g.NumEdges()
		for _, workers := range []int{1, 2, 3} {
			opts := Options{Workers: workers, DegreeThreshold: 1, ChunkSize: 1 + r.Intn(8)}
			cuts := []int{hubCut(t, r, g), pairCut(t, r, g)}
			for k := 2 + r.Intn(4); len(cuts) < k; {
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

// heavyPair is one node pair carrying hundreds of multi-edges in both
// directions, many at equal times, beside legs at both ends (ties among
// them too), and more than two aligned blocks of EdgeIDs: the shape a pair
// walk runs long on and a unit's block bound cuts.
func heavyPair(r *rand.Rand) []temporal.Edge {
	var edges []temporal.Edge
	for i := 0; i < 600; i++ {
		t := int64(i / 4) // four pivots share each time
		if r.Intn(2) == 0 {
			edges = append(edges, temporal.Edge{From: 0, To: 1, Time: t})
		} else {
			edges = append(edges, temporal.Edge{From: 1, To: 0, Time: t})
		}
		for k := r.Intn(3); k > 0; k-- {
			e := temporal.Edge{From: temporal.NodeID(r.Intn(2)), To: temporal.NodeID(2 + r.Intn(8)), Time: t + int64(r.Intn(3))}
			if r.Intn(2) == 0 {
				e.From, e.To = e.To, e.From
			}
			edges = append(edges, e)
		}
	}
	slices.SortStableFunc(edges, func(a, b temporal.Edge) int { return cmp.Compare(a.Time, b.Time) })
	return edges
}

// legPairCases are the inputs the per-pivot tallies are held to
// CountLegPairs on: the sweep corpus, also at δ = 0 and at δ = 2^40 (where
// every window is a whole sequence), 300 random multigraphs over a handful
// of nodes, and the heavy pair at three δ.
func legPairCases() []sweepCase {
	cases := sweepCorpus()
	for _, c := range sweepCorpus() {
		cases = append(cases, sweepCase{c.name + "/delta=0", c.edges, 0}, sweepCase{c.name + "/delta=2^40", c.edges, 1 << 40})
	}
	r := rand.New(rand.NewSource(3801))
	for i := 0; i < 300; i++ {
		cases = append(cases, sweepCase{fmt.Sprintf("multigraph%d", i),
			edgesOf(randomGraph(r, 2+r.Intn(8), 1+r.Intn(60), 1+int64(r.Intn(20)))), int64(r.Intn(12))})
	}
	heavy := heavyPair(r)
	for _, delta := range []temporal.Timestamp{0, 3, 40} {
		cases = append(cases, sweepCase{fmt.Sprintf("heavy-pair/delta=%d", delta), heavy, delta})
	}
	return cases
}

// legPairsOf is CountLegPairs' diff and same cells of pivot e together.
func legPairsOf(g *temporal.Graph, e temporal.EdgeID, delta temporal.Timestamp, scratch *fast.Scratch) LegPairs {
	var diff, same, want LegPairs
	CountLegPairs(g, e, delta, AllLegOrders, scratch, &diff, &same)
	want.add(&diff)
	want.add(&same)
	return want
}

// The merged walks, pivot by pivot: addLegPairs alone must fill exactly the
// cells of CountLegPairs' diff and same together.
func TestAddLegPairsMatchesSweep(t *testing.T) {
	for _, c := range legPairCases() {
		g := temporal.FromEdges(c.edges)
		scratch := fast.GetScratch(g.NumNodes())
		pos := temporal.EdgePositions(g)
		for id := 0; id < g.NumEdges(); id++ {
			e := temporal.EdgeID(id)
			b, d := g.Src()[e], g.Dst()[e]
			var got LegPairs
			addLegPairs(g, b, d, int(pos[e][0]), int(pos[e][1]), g.Times()[e], c.delta, &got)
			if want := legPairsOf(g, e, c.delta, scratch); got != want {
				t.Fatalf("%s pivot %d (%v) δ=%d:\n walks %v\n sweep %v", c.name, id, g.Edge(e), c.delta, got, want)
			}
		}
		fast.PutScratch(scratch)
	}
}

// The pair walk, pivot by pivot: walked from either node of a pair, from its
// first pivot and from a random one, the walk of one more pivot must add
// exactly that pivot's CountLegPairs diff and same together, whichever
// pivots share its walk.
func TestPairWalkMatchesSweep(t *testing.T) {
	r := rand.New(rand.NewSource(4201))
	var ps pairScratch
	for _, c := range legPairCases() {
		g := temporal.FromEdges(c.edges)
		scratch := fast.GetScratch(g.NumNodes())
		for id := 0; id < g.NumEdges(); id++ {
			e := temporal.EdgeID(id)
			b, d := g.Src()[e], g.Dst()[e]
			if g.Between(b, d).ID[0] != e {
				continue // each pair once, from its first edge
			}
			for _, ends := range [][2]temporal.NodeID{{b, d}, {d, b}} {
				pivots := g.Between(ends[0], ends[1])
				n := pivots.Len()
				for _, k0 := range []int{0, r.Intn(n)} {
					var before LegPairs // the walk of pivots [k0, k)
					for k := k0; k < n; k++ {
						var walked LegPairs
						ps.walk(g, ends[0], ends[1], pivots, k0, k+1, c.delta, &walked)
						var got LegPairs
						for o := range got {
							for x := range got[o] {
								for y := range got[o][x] {
									got[o][x][y] = walked[o][x][y] - before[o][x][y]
								}
							}
						}
						if want := legPairsOf(g, pivots.ID[k], c.delta, scratch); got != want {
							t.Fatalf("%s pair %v pivots [%d, %d], pivot %d (%v) δ=%d:\n walk  %v\n sweep %v",
								c.name, ends, k0, k, pivots.ID[k], g.Edge(pivots.ID[k]), c.delta, got, want)
						}
						before = walked
					}
				}
			}
		}
		fast.PutScratch(scratch)
	}
}

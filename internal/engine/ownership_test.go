package engine_test

import (
	"math/rand"
	"testing"

	"hare/internal/brute"
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// hubTriGraph is skewedGraph plus uniform edges among all nodes, so the hubs
// close triangles with their low-degree neighbors.
func hubTriGraph(r *rand.Rand, nodes, edges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		if i%3 != 0 {
			u = temporal.NodeID(r.Intn(2)) // hubs 0..1
		}
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		if r.Intn(2) == 0 {
			u, v = v, u
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	return b.Build()
}

// completeMultigraph has rounds edges of random direction and time on every
// node pair: all temporal degrees are equal, so the ID tie-break alone
// decides the owner of every triangle.
func completeMultigraph(r *rand.Rand, nodes, rounds int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(rounds * nodes * nodes / 2)
	for k := 0; k < rounds; k++ {
		for u := 0; u < nodes; u++ {
			for v := u + 1; v < nodes; v++ {
				from, to := temporal.NodeID(u), temporal.NodeID(v)
				if r.Intn(2) == 0 {
					from, to = to, from
				}
				_ = b.AddEdge(from, to, r.Int63n(span))
			}
		}
	}
	return b.Build()
}

// lappedCycle walks 0 -> 1 -> 2 -> 0 laps times, one edge per tick: the
// other all-equal-degree graph, with every triangle a cyclic M26.
func lappedCycle(laps int) *temporal.Graph {
	b := temporal.NewBuilder(3 * laps)
	for i := 0; i < 3*laps; i++ {
		_ = b.AddEdge(temporal.NodeID(i%3), temporal.NodeID((i+1)%3), int64(i))
	}
	return b.Build()
}

// TestTriangleOwnership pins the one-owner-per-triangle rule: every triangle
// is counted exactly once, by its lowest-(temporal degree, ID) vertex, under
// every way the work is split.
func TestTriangleOwnership(t *testing.T) {
	type sample struct {
		g     *temporal.Graph
		delta temporal.Timestamp
	}
	families := []struct {
		name string
		next func(r *rand.Rand) sample
	}{
		{"random", func(r *rand.Rand) sample {
			return sample{randomGraph(r, 3+r.Intn(12), 20+r.Intn(160), 60), int64(1 + r.Intn(40))}
		}},
		{"hub-skewed", func(r *rand.Rand) sample {
			return sample{hubTriGraph(r, 6+r.Intn(10), 60+r.Intn(140), 60), int64(5 + r.Intn(30))}
		}},
		{"duplicate-timestamps", func(r *rand.Rand) sample {
			return sample{randomGraph(r, 3+r.Intn(8), 20+r.Intn(120), 1+int64(r.Intn(4))), int64(r.Intn(4))}
		}},
		{"delta-zero", func(r *rand.Rand) sample {
			return sample{randomGraph(r, 3+r.Intn(6), 40+r.Intn(120), 3), 0}
		}},
		{"equal-degree-complete", func(r *rand.Rand) sample {
			return sample{completeMultigraph(r, 3+r.Intn(4), 1+r.Intn(5), 30), int64(1 + r.Intn(20))}
		}},
		{"equal-degree-cycle", func(r *rand.Rand) sample {
			return sample{lappedCycle(2 + r.Intn(12)), int64(2 + r.Intn(10))}
		}},
	}
	for i, f := range families {
		t.Run(f.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(19 + i)))
			var triangles uint64
			for trial := 0; trial < 6; trial++ {
				s := f.next(r)
				triangles += checkOwnership(t, r, s.g, s.delta)
			}
			if triangles == 0 {
				t.Fatal("family produced no triangle: the test is vacuous")
			}
		})
	}
}

// checkOwnership returns the number of triangle instances in g.
func checkOwnership(t *testing.T, r *rand.Rand, g *temporal.Graph, delta temporal.Timestamp) uint64 {
	t.Helper()
	want := fast.Count(g, delta)
	owned := want.ToMatrix()

	// (a) the owner-mode matrix is the brute-force oracle's.
	if oracle := brute.Count(g, delta); !owned.Equal(&oracle) {
		t.Fatalf("owner mode differs from brute at %v", owned.Diff(&oracle))
	}

	// (b) the all-triangles-at-u view, summed over all centers, sees every
	// instance exactly three times.
	var all motif.Counts
	for u := 0; u < g.NumNodes(); u++ {
		fast.CountTriNode(g, temporal.NodeID(u), delta, &all.Tri, false)
	}
	recounted := all.ToMatrix()
	for _, l := range motif.TriLabels() {
		if recounted.At(l) != 3*owned.At(l) {
			t.Fatalf("%v: all centers see %d, owners %d", l, recounted.At(l), owned.At(l))
		}
	}

	// (c) any partition of a center's first-edge range adds up to the
	// whole-node call (the intra-node invariant), in owner mode.
	for u := 0; u < g.NumNodes(); u++ {
		u := temporal.NodeID(u)
		d := g.Degree(u)
		var whole, parts motif.TriCounter
		fast.CountTriNode(g, u, delta, &whole, true)
		cut1 := r.Intn(d + 1)
		cut2 := cut1 + r.Intn(d+1-cut1)
		for _, rg := range [][2]int{{0, cut1}, {cut1, cut2}, {cut2, d}} {
			fast.CountTriRange(g, u, delta, &parts, true, rg[0], rg[1])
		}
		if parts != whole {
			t.Fatalf("center %d: partition (0,%d,%d,%d) differs from whole", u, cut1, cut2, d)
		}
	}

	// (d) the engine's counters are bit-identical to the sequential ones at
	// every worker count, threshold and schedule.
	for _, workers := range []int{1, 2, 3, 8} {
		for _, thrd := range []int{0, -1, 1} {
			for _, sched := range []engine.Schedule{engine.ScheduleDynamic, engine.ScheduleStatic} {
				opts := engine.Options{Workers: workers, DegreeThreshold: thrd, Schedule: sched}
				if got := engine.Count(g, delta, opts); *got != *want {
					t.Fatalf("engine %+v: counters differ from fast.Count", opts)
				}
			}
		}
	}
	return owned.CategoryTotal(motif.CategoryTri)
}

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

// skewedGraph puts most edges on a small hub set so the intra-node stage is
// exercised.
func skewedGraph(r *rand.Rand, nodes, edges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(3)) // hubs 0..2
		v := temporal.NodeID(3 + r.Intn(nodes-3))
		if r.Intn(2) == 0 {
			u, v = v, u
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	return b.Build()
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(r, 5+r.Intn(30), 50+r.Intn(400), 80)
		delta := int64(1 + r.Intn(40))
		want := fast.Count(g, delta).ToMatrix()
		for _, workers := range []int{1, 2, 4, 8} {
			got := engine.Count(g, delta, engine.Options{Workers: workers}).ToMatrix()
			if !got.Equal(&want) {
				t.Fatalf("trial %d workers=%d: diff %v", trial, workers, got.Diff(&want))
			}
		}
	}
}

func TestParallelMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(r, 4+r.Intn(10), 30+r.Intn(150), 40)
		delta := int64(1 + r.Intn(25))
		want := brute.Count(g, delta)
		got := engine.Count(g, delta, engine.Options{Workers: 4}).ToMatrix()
		if !got.Equal(&want) {
			t.Fatalf("trial %d: diff %v", trial, got.Diff(&want))
		}
	}
}

func TestHierarchicalThresholds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := skewedGraph(r, 40, 2000, 200)
	delta := int64(60)
	want := fast.Count(g, delta).ToMatrix()
	for _, thrd := range []int{-1, 0, 1, 5, 50, 100000} {
		got := engine.Count(g, delta, engine.Options{Workers: 6, DegreeThreshold: thrd}).ToMatrix()
		if !got.Equal(&want) {
			t.Fatalf("thrd=%d: diff %v", thrd, got.Diff(&want))
		}
	}
}

func TestStaticSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := skewedGraph(r, 30, 1000, 100)
	delta := int64(30)
	want := fast.Count(g, delta).ToMatrix()
	got := engine.Count(g, delta, engine.Options{Workers: 5, Schedule: engine.ScheduleStatic, DegreeThreshold: -1}).ToMatrix()
	if !got.Equal(&want) {
		t.Fatalf("static schedule diff: %v", got.Diff(&want))
	}
}

func TestCountStarPairOnly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 12, 300, 60)
	delta := int64(20)
	want := fast.CountStarPair(g, delta)
	got := engine.CountCategoryRange(g, delta, engine.Options{Workers: 4}, 0, g.NumIncidences(), motif.CategoryStar)
	if got.Star != want.Star || got.Pair != want.Pair {
		t.Fatal("star/pair-only parallel run differs from sequential")
	}
	if got.Tri.Total() != 0 {
		t.Fatal("star/pair-only run counted triangles")
	}
}

func TestCountTriOnly(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := randomGraph(r, 12, 300, 60)
	delta := int64(20)
	wantM := fast.Count(g, delta).ToMatrix()
	got := engine.CountCategoryRange(g, delta, engine.Options{Workers: 4}, 0, g.NumIncidences(), motif.CategoryTri).ToMatrix()
	for _, l := range motif.TriLabels() {
		if got.At(l) != wantM.At(l) {
			t.Fatalf("%v = %d, want %d", l, got.At(l), wantM.At(l))
		}
	}
	if got.CategoryTotal(motif.CategoryStar) != 0 || got.CategoryTotal(motif.CategoryPair) != 0 {
		t.Fatal("tri-only run counted stars/pairs")
	}
}

func TestZeroValueOptions(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 0}, {From: 0, To: 1, Time: 1}, {From: 0, To: 1, Time: 2},
	})
	m := engine.Count(g, 10, engine.Options{}).ToMatrix()
	if m.At(motif.Label{Row: 5, Col: 5}) != 1 {
		t.Fatalf("M55 = %d, want 1", m.At(motif.Label{Row: 5, Col: 5}))
	}
}

func TestEmptyGraphParallel(t *testing.T) {
	g := temporal.FromEdges(nil)
	m := engine.Count(g, 10, engine.Options{Workers: 8}).ToMatrix()
	if m.Total() != 0 {
		t.Fatalf("empty graph counted %d", m.Total())
	}
}

func TestManyMoreWorkersThanNodes(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := randomGraph(r, 4, 60, 20)
	delta := int64(10)
	want := fast.Count(g, delta).ToMatrix()
	got := engine.Count(g, delta, engine.Options{Workers: 32, ChunkSize: 1}).ToMatrix()
	if !got.Equal(&want) {
		t.Fatalf("diff %v", got.Diff(&want))
	}
}

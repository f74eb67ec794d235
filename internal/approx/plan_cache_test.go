package approx

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hare/internal/gen"
	"hare/internal/temporal"
)

// degreeProduct is the edge kernels' allocation proxy d(src)·d(dst), written
// out apart from temporal.PivotWeight: the weight a fresh BuildPlan of a
// graph's edges ranks by.
func degreeProduct(g *temporal.Graph) func(id int) float64 {
	return func(id int) float64 {
		e := temporal.EdgeID(id)
		return float64(float64(g.Degree(g.Src()[e])) * float64(g.Degree(g.Dst()[e])))
	}
}

// planCases are the knobs a cached plan is held to a fresh one at: ε from
// 1e-300 (exact enumeration) to 0.5 at several seeds, and explicit samples
// from below the draw floor to past the domain.
func planCases(domain int) []Options {
	var cases []Options
	for _, eps := range []float64{1e-300, 1e-10, 1e-3, 0.01, 0.05, 0.2, 0.5} {
		for _, seed := range []int64{0, 1, -7, 1 << 40} {
			cases = append(cases, Options{Epsilon: eps, Seed: seed})
		}
	}
	for _, samples := range []int{1, 8, 50, domain / 3, domain, 1 << 30} {
		cases = append(cases, Options{Samples: samples, Seed: int64(samples), Confidence: 0.9})
	}
	return cases
}

// A plan read from the graph's kept ranking equals a fresh rank-and-allocate
// over the degree products, field for field (the rank permutation too), for
// both edge kernels: on every dataset of the generator's corpus, the test
// corpus's hub and random graphs, an empty graph (domain 0), and graphs
// whose edges all weigh the same (a matching and a cycle), where the ID
// alone orders the ranking.
func TestCachedPlanMatchesFresh(t *testing.T) {
	type graphCase struct {
		name string
		g    *temporal.Graph
	}
	var graphs []graphCase
	for _, name := range gen.DatasetNames() {
		cfg, err := gen.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graphCase{name, gen.MustGenerate(gen.Scaled(cfg, 0.05))})
	}
	r := rand.New(rand.NewSource(4701))
	graphs = append(graphs, graphCase{"hub", hubGraph(3)}, graphCase{"random", randomGraph(r, 40, 900, 500)},
		graphCase{"empty", temporal.FromEdges(nil)})
	var matching, cycle []temporal.Edge
	for i := 0; i < 300; i++ {
		matching = append(matching, temporal.Edge{From: temporal.NodeID(2 * i), To: temporal.NodeID(2*i + 1), Time: int64(r.Intn(50))})
		cycle = append(cycle, temporal.Edge{From: temporal.NodeID(i), To: temporal.NodeID((i + 1) % 300), Time: int64(r.Intn(50))})
	}
	graphs = append(graphs, graphCase{"matching", temporal.FromEdges(matching)}, graphCase{"cycle", temporal.FromEdges(cycle)})

	for _, gc := range graphs {
		g, m := gc.g, gc.g.NumEdges()
		for _, k := range []Kernel{PathKernel{}, PlanKernel{}} {
			for _, o := range planCases(m) {
				name := fmt.Sprintf("%s/%T/%+v", gc.name, k, o)
				got, err := NewPlan(g, k, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := BuildPlan(m, k.Cells(), degreeProduct(g), o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cached plan differs from a fresh one\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
		if gc.name == "matching" || gc.name == "cycle" {
			for r, e := range temporal.PivotRanking(g) {
				if int(e) != r {
					t.Fatalf("%s: equal weights rank edge %d at %d, want ID order", gc.name, e, r)
				}
			}
		}
	}
	if _, err := NewPlan(graphs[0].g, PathKernel{}, Options{Epsilon: 2}); err == nil {
		t.Fatal("invalid epsilon must fail NewPlan")
	}
}

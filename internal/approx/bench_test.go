package approx

import (
	"fmt"
	"math/rand"
	"testing"

	"hare/internal/temporal"
)

// benchHubGraph builds a hub-skewed graph: the shape the estimator exists
// for, where exact counters burn most of their time on a long tail of
// light pivots that sampling skips.
func benchHubGraph(r *rand.Rand, nodes, edges, hubEdges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges + hubEdges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	for i := 0; i < hubEdges; i++ {
		v := temporal.NodeID(1 + r.Intn(nodes-1))
		if r.Intn(2) == 0 {
			_ = b.AddEdge(0, v, r.Int63n(span))
		} else {
			_ = b.AddEdge(v, 0, r.Int63n(span))
		}
	}
	return b.Build()
}

// BenchmarkApproxPath4 measures the path-family estimator; the pinned CI
// run pairs it with the exact BenchmarkCountPath4 in internal/higher so
// the regression fence tracks both sides of the speedup.
func BenchmarkApproxPath4(b *testing.B) {
	r := rand.New(rand.NewSource(92))
	g := benchHubGraph(r, 400, 12_000, 3_000, 200_000)
	b.ResetTimer()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Path4(g, 2_000, Options{Epsilon: 0.05, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproxPlan isolates plan construction on a warm graph — the
// budget, the strata, one pass summing each stratum's weight in rank order
// and the apportionment, the estimator's fixed overhead per request. The
// graph's pivot ranking (temporal.PivotRanking, a radix sort over every
// edge) is built once, by the first request, before the timer starts.
func BenchmarkApproxPlan(b *testing.B) {
	r := rand.New(rand.NewSource(93))
	g := benchHubGraph(r, 400, 60_000, 15_000, 200_000)
	temporal.PivotRanking(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(g, PathKernel{}, Options{Epsilon: 0.05, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

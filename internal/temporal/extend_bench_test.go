package temporal_test

import (
	"math/rand"
	"sync"
	"testing"

	"hare/internal/gen"
	"hare/internal/temporal"
)

// A live read after one ingest batch, at the size serve-live reaches: a
// 200k-edge wikitalk prefix already built, 1000 more edges to fold in.
// BenchmarkExtend merges them; BenchmarkFromEdges/wikitalk builds the same
// graph from scratch, the cost the merge is there to avoid.
const extendBenchBase, extendBenchTail = 200_000, 1000

var extendBenchInput = sync.OnceValues(func() (*temporal.Graph, []temporal.Edge) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		panic(err)
	}
	edges := gen.MustGenerate(cfg).Edges()[:extendBenchBase+extendBenchTail]
	return temporal.FromEdges(edges[:extendBenchBase]), edges
})

var benchGraph *temporal.Graph

func BenchmarkExtend(b *testing.B) {
	base, edges := extendBenchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = temporal.Extend(base, edges[extendBenchBase:])
	}
}

func BenchmarkFromEdges(b *testing.B) {
	_, edges := extendBenchInput()
	for _, in := range []struct {
		name  string
		edges []temporal.Edge
	}{
		{"wikitalk", edges},
		{"hub", temporal.HubSkewedEdges(rand.New(rand.NewSource(6)), 40_000, len(edges))},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = temporal.FromEdges(in.edges)
			}
		})
	}
}

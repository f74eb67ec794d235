package temporal

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// benchEdgeListText builds a ~240k-line SNAP-style edge-list text once:
// power-law-ish endpoints, non-decreasing timestamps, occasional comments —
// the shape the ingestion pipeline sees on the paper's datasets.
var benchEdgeListText = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	tnow := int64(1_100_000_000)
	for i := 0; i < 240_000; i++ {
		if i%10_000 == 0 {
			buf.WriteString("# checkpoint\n")
		}
		u := rng.Intn(1 + rng.Intn(40_000))
		v := rng.Intn(1 + rng.Intn(40_000))
		tnow += int64(rng.Intn(30))
		fmt.Fprintf(&buf, "%d %d %d\n", u, v, tnow)
	}
	return buf.Bytes()
})

// HubSkewedEdges draws m chronological edges over n nodes in the shape the
// benchmark's datasets (internal/gen's redditcomments, wikitalk) have and
// the near-uniform inputs above lack: 85 % of edges touch node 0, so it
// owns ~42 % of the half-edges, and the other endpoint is skewed towards
// low IDs, so most pairs are heavy multi-edges in both directions. Built
// inline because temporal cannot import gen; exported to the package's
// external tests.
func HubSkewedEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	tnow := Timestamp(1_100_000_000)
	for i := range edges {
		u, v := NodeID(0), NodeID(1+rng.Intn(1+rng.Intn(n-1)))
		if rng.Intn(100) >= 85 {
			u = NodeID(rng.Intn(n))
			if u == v {
				u = 0
			}
		}
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		tnow += Timestamp(rng.Intn(30))
		edges[i] = Edge{From: u, To: v, Time: tnow}
	}
	return edges
}

// benchHubEdgeListText is benchEdgeListText's size in HubSkewedEdges' shape.
var benchHubEdgeListText = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	for _, e := range HubSkewedEdges(rand.New(rand.NewSource(5)), 40_000, 240_000) {
		fmt.Fprintf(&buf, "%d %d %d\n", e.From, e.To, e.Time)
	}
	return buf.Bytes()
})

func benchLoad(b *testing.B, data []byte, workers int) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		g, err := ReadEdgeList(bytes.NewReader(data), LoadOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		edges = g.NumEdges()
	}
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkReadEdgeListSeq is the pipeline on one parse goroutine (the name
// is pinned by the CI fence's baseline).
func BenchmarkReadEdgeListSeq(b *testing.B) { benchLoad(b, benchEdgeListText(), 1) }

func BenchmarkReadEdgeListParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchLoad(b, benchEdgeListText(), w) })
	}
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("hub/workers=%d", w), func(b *testing.B) { benchLoad(b, benchHubEdgeListText(), w) })
	}
}

// BenchmarkBuildParallel isolates the CSR finalisation stage, buildColumns
// at each worker count, on uniform endpoints (random times: the sorting
// branch), on the hub-skewed shape (chronological: no sort) and on that
// shape with its timestamps shuffled — what a TimeShuffle null sample
// rebuilds, so the time sort over a real time span is timed on its own.
func BenchmarkBuildParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	benchBuildParallel(b, "", randomEdges(rng, 40_000, 240_000, 1_000_000))
	hub := HubSkewedEdges(rng, 40_000, 240_000)
	benchBuildParallel(b, "hub/", hub)
	shuffled := slices.Clone(hub)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i].Time, shuffled[j].Time = shuffled[j].Time, shuffled[i].Time })
	benchBuildParallel(b, "hub-shuffled/", shuffled)
}

func benchBuildParallel(b *testing.B, prefix string, edges []Edge) {
	in := NewBuilder(len(edges))
	for _, e := range edges {
		_ = in.AddEdge(e.From, e.To, e.Time)
	}
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%sworkers=%d", prefix, w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src, dst, ts := slices.Clone(in.src), slices.Clone(in.dst), slices.Clone(in.ts)
				b.StartTimer()
				buildColumns(src, dst, ts, in.numNodes(), in.selfLoops, w)
			}
		})
	}
}

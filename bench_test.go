// Benchmarks regenerating each of the paper's tables and figures in
// testing.B form (one benchmark family per table/figure; `harebench -exp`
// produces the full formatted reports). Datasets are the synthetic suite
// scaled down so `go test -bench=. -benchmem` completes quickly; absolute
// numbers are therefore smaller than the harebench run recorded in
// EXPERIMENTS.md, but the relative shapes are the same. CI pins a subset
// into bench.txt for the `harebench -compare` fence; end-to-end numbers
// come from benchmark/ (BENCHMARK.json), not from here.
package hare_test

import (
	"fmt"
	"sync"
	"testing"

	"hare/internal/baseline/bt"
	"hare/internal/baseline/bts"
	"hare/internal/baseline/ews"
	"hare/internal/baseline/exact"
	"hare/internal/baseline/twoscent"
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/gen"
	"hare/internal/motif"
	"hare/internal/stream"
	"hare/internal/temporal"
)

const benchDelta = 600

var (
	benchMu    sync.Mutex
	benchCache = map[string]*temporal.Graph{}
)

// benchGraph returns a cached scaled dataset.
func benchGraph(b *testing.B, name string, scale float64) *temporal.Graph {
	b.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	benchMu.Lock()
	defer benchMu.Unlock()
	if g, ok := benchCache[key]; ok {
		return g
	}
	cfg, err := gen.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(gen.Scaled(cfg, scale))
	if err != nil {
		b.Fatal(err)
	}
	benchCache[key] = g
	return g
}

// --- Table II ---------------------------------------------------------------

func BenchmarkTable2Stats(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		temporal.ComputeStats(g, 20)
	}
}

// --- Table III: single-thread algorithm runtimes ----------------------------

func benchTable3(b *testing.B, name string, scale float64) {
	g := benchGraph(b, name, scale)
	b.Run("EX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.Count(g, benchDelta)
		}
	})
	b.Run("EWS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ews.EstimateAll(g, benchDelta, ews.Options{P: 0.05, Seed: 1})
		}
	})
	b.Run("FAST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fast.Count(g, benchDelta)
		}
	})
	b.Run("BT-Pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt.CountPairs(g, benchDelta)
		}
	})
	b.Run("BTS-Pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bts.EstimatePairs(g, benchDelta, bts.Options{Q: 0.3, Seed: 1})
		}
	})
	b.Run("FAST-Pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fast.CountStarPair(g, benchDelta)
		}
	})
	b.Run("2SCENT-Tri", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			twoscent.CountCycles(g, benchDelta)
		}
	})
	b.Run("FAST-Tri", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fast.CountTri(g, benchDelta)
		}
	})
}

func BenchmarkTable3CollegeMsg(b *testing.B)   { benchTable3(b, "collegemsg", 1) }
func BenchmarkTable3EmailEu(b *testing.B)      { benchTable3(b, "email-eu", 0.25) }
func BenchmarkTable3WikiTalk(b *testing.B)     { benchTable3(b, "wikitalk", 0.1) }
func BenchmarkTable3SuperUser(b *testing.B)    { benchTable3(b, "superuser", 0.1) }
func BenchmarkTable3MathOverflow(b *testing.B) { benchTable3(b, "mathoverflow", 0.2) }

// --- Fig. 9: per-node counting cost on a skewed graph -----------------------

func BenchmarkFig9PerNode(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.1)
	scratch := fast.NewScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counts := &motif.Counts{}
		for u := 0; u < g.NumNodes(); u++ {
			fast.CountStarPairNode(g, temporal.NodeID(u), benchDelta, counts, scratch)
			fast.CountTriNode(g, temporal.NodeID(u), benchDelta, &counts.Tri, true)
		}
	}
}

// --- Fig. 10: accuracy runs (FAST vs EX on the four accuracy datasets) ------

func BenchmarkFig10FAST(b *testing.B) {
	for _, name := range []string{"collegemsg", "superuser", "wikitalk", "stackoverflow"} {
		g := benchGraph(b, name, 0.05)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fast.Count(g, benchDelta)
			}
		})
	}
}

func BenchmarkFig10EX(b *testing.B) {
	for _, name := range []string{"collegemsg", "superuser", "wikitalk", "stackoverflow"} {
		g := benchGraph(b, name, 0.05)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.Count(g, benchDelta)
			}
		})
	}
}

// --- Fig. 11: thread scaling ------------------------------------------------

func BenchmarkFig11HARE(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.25)
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(threadName(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.Count(g, benchDelta, engine.Options{Workers: th})
			}
		})
	}
}

func BenchmarkFig11EXParallel(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.25)
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(threadName(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.CountParallel(g, benchDelta, th)
			}
		})
	}
}

func BenchmarkFig11HAREPair(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.25)
	for _, th := range []int{1, 4, 16} {
		b.Run(threadName(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.CountCategoryRange(g, benchDelta, engine.Options{Workers: th}, 0, g.NumIncidences(), motif.CategoryPair)
			}
		})
	}
}

func BenchmarkFig11BTSPair(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.25)
	for _, th := range []int{1, 4, 16} {
		b.Run(threadName(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bts.EstimatePairs(g, benchDelta, bts.Options{Q: 0.3, Seed: 1, Workers: th})
			}
		})
	}
}

// --- Fig. 12(a): δ sensitivity ----------------------------------------------

func BenchmarkFig12Delta(b *testing.B) {
	g := benchGraph(b, "superuser", 0.1)
	for _, d := range []temporal.Timestamp{7200, 14400, 21600, 28800} {
		b.Run(deltaName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.Count(g, d, engine.Options{Workers: 16})
			}
		})
	}
}

func BenchmarkFig12DeltaEX(b *testing.B) {
	g := benchGraph(b, "superuser", 0.1)
	for _, d := range []temporal.Timestamp{7200, 28800} {
		b.Run(deltaName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.Count(g, d)
			}
		})
	}
}

// --- Fig. 12(b): degree-threshold ablation ----------------------------------

func BenchmarkFig12Thrd(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.25)
	st := temporal.ComputeStats(g, 20)
	cases := []struct {
		name string
		opts engine.Options
	}{
		{"static-no-thrd", engine.Options{Workers: 16, Schedule: engine.ScheduleStatic, DegreeThreshold: -1}},
		{"dynamic-no-thrd", engine.Options{Workers: 16, DegreeThreshold: -1}},
		{"thrd-10pct", engine.Options{Workers: 16, DegreeThreshold: st.MaxDegree / 10}},
		{"thrd-auto", engine.Options{Workers: 16}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.Count(g, benchDelta, c.opts)
			}
		})
	}
}

// --- Streaming ingest throughput (edges/sec vs workers) ---------------------

// benchStreamEdges returns a power-law edge stream in time order.
func benchStreamEdges(b *testing.B, name string, scale float64) []temporal.Edge {
	b.Helper()
	return benchGraph(b, name, scale).Edges()
}

func benchStreamIngest(b *testing.B, mode stream.Mode) {
	edges := benchStreamEdges(b, "wikitalk", 0.25)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(threadName(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := stream.NewCounter(stream.Options{
					Delta: benchDelta, Mode: mode, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(edges); lo += 8192 {
					hi := min(lo+8192, len(edges))
					if err := c.AddBatch(edges[lo:hi]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkStreamIngest measures the parallel AddBatch path: edges/sec of
// cumulative online counting as the worker count grows.
func BenchmarkStreamIngest(b *testing.B) { benchStreamIngest(b, stream.Cumulative) }

// BenchmarkStreamIngestSliding measures the same ingest with sliding-window
// retirement enabled (roughly double the per-edge scan work).
func BenchmarkStreamIngestSliding(b *testing.B) { benchStreamIngest(b, stream.Sliding) }

// BenchmarkStreamIngestSequential is the one-edge-at-a-time baseline the
// batched path is measured against.
func BenchmarkStreamIngestSequential(b *testing.B) {
	edges := benchStreamEdges(b, "wikitalk", 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := stream.New(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			if err := c.Add(e.From, e.To, e.Time); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func threadName(th int) string {
	return "threads-" + itoa(th)
}

func deltaName(d temporal.Timestamp) string {
	return "delta-" + itoa(int(d))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Ablation benchmarks for the design choices called out in DESIGN.md: the
// one-owner-per-triangle rule, scratch reuse in the FAST-Star hot loop,
// HARE's dynamic chunk size, the per-pair index behind FAST-Tri, and the
// incremental-vs-batch counting trade-off.
package hare_test

import (
	"sort"
	"testing"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/stream"
	"hare/internal/temporal"
)

// Ablation: the paper's HARE finds every triangle at all three vertices
// ("all-centres"); this repo gives each triangle to its lowest-(degree, ID)
// vertex ("owner"), which is what every whole-graph count runs. Both cases
// time Algorithm 2 (the sequential reference); the engine's owner loop over
// stored forward incidences is BenchmarkTri/forward in internal/fast. A hub
// skips each first edge in O(1) and the i/j loops that remain run at the
// cheap end of every triangle: ~14× measured here on the reference box.
func BenchmarkAblationTriDedup(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.1)
	b.Run("owner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tri motif.TriCounter
			for u := 0; u < g.NumNodes(); u++ {
				fast.CountTriNode(g, temporal.NodeID(u), benchDelta, &tri, true)
			}
		}
	})
	b.Run("all-centres", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tri motif.TriCounter
			for u := 0; u < g.NumNodes(); u++ {
				fast.CountTriNode(g, temporal.NodeID(u), benchDelta, &tri, false)
			}
		}
	})
}

// Ablation: reusing the m_in/m_out scratch maps across centers versus fresh
// maps per center. Measured: a wash at synthetic scales — Go's small-map
// allocation is cheap and clear() costs about as much; kept for the
// worst-case hub sequences where maps grow large.
func BenchmarkAblationScratchReuse(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.1)
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counts := &motif.Counts{}
			s := fast.NewScratch()
			for u := 0; u < g.NumNodes(); u++ {
				fast.CountStarPairNode(g, temporal.NodeID(u), benchDelta, counts, s)
			}
		}
	})
	b.Run("fresh-per-center", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			counts := &motif.Counts{}
			for u := 0; u < g.NumNodes(); u++ {
				fast.CountStarPairNode(g, temporal.NodeID(u), benchDelta, counts, fast.NewScratch())
			}
		}
	})
}

// Ablation: HARE's dynamic-scheduling chunk size. Tiny chunks pay cursor
// contention; huge chunks re-create load imbalance.
func BenchmarkAblationChunkSize(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.25)
	for _, chunk := range []int{1, 16, 64, 512, 8192} {
		b.Run("chunk-"+itoa(chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				engine.Count(g, benchDelta, engine.Options{Workers: 16, ChunkSize: chunk})
			}
		})
	}
}

// Ablation: FAST-Tri's per-pair index E(v,w) versus re-filtering the
// neighbor's full adjacency (what BT/2SCENT-style scans do). The naive
// variant is implemented against the public Graph API and validated against
// the indexed counts before timing.
func BenchmarkAblationPairIndex(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.1)
	var want motif.TriCounter
	for u := 0; u < g.NumNodes(); u++ {
		fast.CountTriNode(g, temporal.NodeID(u), benchDelta, &want, true)
	}
	var got motif.TriCounter
	countTriNoIndex(g, benchDelta, &got)
	if want != got {
		b.Fatal("naive triangle variant disagrees with indexed FAST-Tri")
	}
	b.Run("pair-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tri motif.TriCounter
			for u := 0; u < g.NumNodes(); u++ {
				fast.CountTriNode(g, temporal.NodeID(u), benchDelta, &tri, true)
			}
		}
	})
	b.Run("adjacency-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tri motif.TriCounter
			countTriNoIndex(g, benchDelta, &tri)
		}
	})
}

// countTriNoIndex replicates FAST-Tri's owner-mode traversal but resolves E(v,w)
// by filtering v's full sequence instead of using the per-pair index.
func countTriNoIndex(g *temporal.Graph, delta temporal.Timestamp, tri *motif.TriCounter) {
	for ui := 0; ui < g.NumNodes(); ui++ {
		u := temporal.NodeID(ui)
		su := g.Seq(u)
		// skip: v precedes u in (degree, ID) order, so u does not own.
		skip := func(v temporal.NodeID) bool {
			dv := g.Degree(v)
			return dv < su.Len() || dv == su.Len() && v < u
		}
		for i := 0; i < su.Len()-1; i++ {
			ei := su.At(i)
			if skip(ei.Other) {
				continue
			}
			di := motif.Dir(ei.Dir())
			for j := i + 1; j < su.Len(); j++ {
				ej := su.At(j)
				if ej.Time-ei.Time > delta {
					break
				}
				if ej.Other == ei.Other || skip(ej.Other) {
					continue
				}
				dj := motif.Dir(ej.Dir())
				sv := g.Seq(ei.Other)
				lo := sort.Search(sv.Len(), func(k int) bool { return sv.Time[k] >= ej.Time-delta })
				for k := lo; k < sv.Len(); k++ {
					ek := sv.At(k)
					if ek.Time > ei.Time+delta {
						break
					}
					if ek.Other != ej.Other {
						continue
					}
					dk := motif.Dir(ek.Dir())
					switch {
					case ek.ID < ei.ID:
						tri[motif.TriIndex(motif.TriI, di, dj, dk)]++
					case ek.ID == ei.ID:
						// the center-incident edge itself: skip
					case ek.ID < ej.ID:
						tri[motif.TriIndex(motif.TriII, di, dj, dk)]++
					case ek.ID > ej.ID:
						tri[motif.TriIndex(motif.TriIII, di, dj, dk)]++
					}
				}
			}
		}
	}
}

// Ablation: one incremental pass (stream) versus a batch recount per
// checkpoint — the trade-off that motivates the online counter for live
// systems.
func BenchmarkAblationStreamVsBatch(b *testing.B) {
	g := benchGraph(b, "sms-a", 0.25)
	edges := g.Edges()
	const checkpoints = 8
	b.Run("stream-online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := stream.New(benchDelta)
			step := len(edges)/checkpoints + 1
			for k, e := range edges {
				_ = c.Add(e.From, e.To, e.Time)
				if k%step == step-1 {
					_ = c.Matrix()
				}
			}
		}
	})
	b.Run("batch-recount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			step := len(edges)/checkpoints + 1
			for k := step - 1; k < len(edges); k += step {
				sub := temporal.FromEdges(edges[:k+1])
				fast.Count(sub, benchDelta)
			}
		}
	})
}

// Extension: higher-order 4-node star counting costs one extra O(d) pass per
// center on top of FAST-Star.
func BenchmarkAblationStar4(b *testing.B) {
	g := benchGraph(b, "wikitalk", 0.1)
	b.Run("fast-star-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fast.CountStarPair(g, benchDelta)
		}
	})
	b.Run("with-star4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			higher.Count(g, benchDelta)
		}
	})
}

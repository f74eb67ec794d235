package higher

import (
	"runtime"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Options configures the parallel higher-order counters. The zero value
// means: one worker per CPU, automatic degree threshold (the HARE top-20
// heuristic), default chunking. Both counters are exact at any setting —
// the options only steer scheduling.
type Options struct {
	// Workers is the number of goroutines (<= 0 selects GOMAXPROCS;
	// 1 runs the sequential reference loops).
	Workers int
	// DegreeThreshold splits light from heavy work the same way the HARE
	// engine does: centers (stars) or middle-edge endpoints (paths) with
	// temporal degree strictly greater are scheduled with finer-grained
	// parallelism. 0 selects the automatic top-20 heuristic; negative
	// disables the heavy stage.
	DegreeThreshold int
	// ChunkSize is the number of light work items per dynamic work unit
	// (default 64).
	ChunkSize int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers resolves Workers to the goroutine count a run actually
// uses (<= 0 selects GOMAXPROCS). Callers sizing per-worker accumulators
// for ForEdgesRange need the same resolution the scheduler applies.
func (o Options) EffectiveWorkers() int { return o.workers() }

func (o Options) chunk() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return 64
}

// effThrd resolves the degree threshold like the HARE engine: the explicit
// value when set, the automatic top-20 heuristic when 0. A non-positive
// result means "no heavy stage" (tiny graph, or explicitly disabled).
func effThrd(g *temporal.Graph, opts Options) int {
	if opts.DegreeThreshold != 0 {
		return opts.DegreeThreshold
	}
	return temporal.TopKDegreeThreshold(g, 20)
}

// CountStar4 counts the 4-node, 3-edge star motifs with the engine's
// scheduling machinery: light centers are pulled in dynamic chunks, heavy
// centers (degree > thrd) are processed one at a time with both counter
// families range-split across workers and the complement applied after the
// partials merge. Counts are bit-identical to the sequential Count at any
// worker count (per-center tallies are exact integer sums).
func CountStar4(g *temporal.Graph, delta temporal.Timestamp, opts Options) Star4Counter {
	return CountStar4Range(g, delta, opts, 0, g.NumNodes())
}

// CountStar4Range counts the 4-node stars whose center node lies in the
// half-open ID range [lo, hi) (clamped to [0, NumNodes)). Every 4-node star
// has a unique center, so any partition of the node IDs yields partial
// counters that sum — in any order, the cells are exact uint64 tallies — to
// CountStar4's full counter: the per-shard work unit of the scatter/gather
// serving path (internal/shard).
func CountStar4Range(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) Star4Counter {
	if lo < 0 {
		lo = 0
	}
	if hi > g.NumNodes() {
		hi = g.NumNodes()
	}
	var total Star4Counter
	if lo >= hi {
		return total
	}
	workers := opts.workers()
	if workers == 1 {
		scratch := fast.NewScratch()
		for u := lo; u < hi; u++ {
			s4, _ := CountNode(g, temporal.NodeID(u), delta, scratch)
			total.Add(&s4)
		}
		return total
	}
	thrd := effThrd(g, opts)
	var light, heavy []temporal.NodeID
	for u := lo; u < hi; u++ {
		d := g.Degree(temporal.NodeID(u))
		if d < 3 {
			continue // a 4-node star needs three incident edges
		}
		if thrd > 0 && d > thrd {
			heavy = append(heavy, temporal.NodeID(u))
		} else {
			light = append(light, temporal.NodeID(u))
		}
	}
	scratch := make([]*fast.Scratch, workers)
	perW := make([]Star4Counter, workers)
	for w := range scratch {
		scratch[w] = fast.NewScratch()
		scratch[w].Grow(g.NumNodes())
	}

	// Stage 1: inter-center parallelism over light centers.
	engine.Dispatch(workers, opts.chunk(), len(light), func(w, a, b int) {
		for _, u := range light[a:b] {
			s4, _ := CountNode(g, u, delta, scratch[w])
			perW[w].Add(&s4)
		}
	})
	for w := range perW {
		total.Add(&perW[w])
	}

	// Stage 2: intra-center parallelism, one heavy center at a time. The
	// all-triples counter splits by last-edge index, FAST-Star by first-edge
	// index; both partitions are exact, so the per-center sums equal the
	// sequential counters and the complement identity applies unchanged.
	allPart := make([][8]uint64, workers)
	countsPart := make([]motif.Counts, workers)
	for _, u := range heavy {
		su := g.Seq(u)
		for w := 0; w < workers; w++ {
			allPart[w] = [8]uint64{}
			countsPart[w] = motif.Counts{}
		}
		engine.Dispatch(workers, su.Len()/(workers*8)+1, su.Len(), func(w, a, b int) {
			countAllTriplesRange(su, delta, &allPart[w], a, b)
			fast.CountStarPairRange(su, delta, &countsPart[w], scratch[w], a, b)
		})
		var all [8]uint64
		var counts motif.Counts
		for w := 0; w < workers; w++ {
			for i := range all {
				all[i] += allPart[w][i]
			}
			counts.Add(&countsPart[w])
		}
		for i := range all {
			d1, d2, d3 := motif.PairDirs(i)
			v := all[i]
			v -= counts.Star.At(motif.StarI, d1, d2, d3)
			v -= counts.Star.At(motif.StarII, d1, d2, d3)
			v -= counts.Star.At(motif.StarIII, d1, d2, d3)
			v -= counts.Pair.At(d1, d2, d3)
			total[i] += v
		}
	}
	return total
}

// countAllTriplesRange tallies the ordered triples whose *last* edge index
// k lies in [lo, hi) — the range analogue of countAllTriples. The sliding
// window state at k = lo is reconstructed by replaying the in-window prefix
// (O(window) work), after which the loop proceeds exactly as the sequential
// one; a partition of [0, n) therefore sums to the full counter.
func countAllTriplesRange(seq temporal.Seq, delta temporal.Timestamp, out *[8]uint64, lo, hi int) {
	n := seq.Len()
	if n < 3 || lo >= hi {
		return
	}
	times, outs := seq.Time, seq.Out
	var c1 [2]uint64
	var c2 [4]uint64
	// Window start for k = lo, then replay the additions the sequential
	// loop would have accumulated for indices [start, lo).
	start := seq.LowerBoundTime(times[lo] - delta)
	for x := start; x < lo; x++ {
		z := int(motif.DirOf(outs[x]))
		c2[0<<1|z] += c1[0]
		c2[1<<1|z] += c1[1]
		c1[z]++
	}
	for k := lo; k < hi; k++ {
		for times[start] < times[k]-delta {
			x := int(motif.DirOf(outs[start]))
			c1[x]--
			c2[x<<1|0] -= c1[0]
			c2[x<<1|1] -= c1[1]
			start++
		}
		z := int(motif.DirOf(outs[k]))
		for xy := 0; xy < 4; xy++ {
			out[xy<<1|z] += c2[xy]
		}
		c2[0<<1|z] += c1[0]
		c2[1<<1|z] += c1[1]
		c1[z]++
	}
}

// CountPath4 counts the 4-node, 3-edge path motifs in parallel over middle
// edges. Middle edges with a heavy endpoint (degree > thrd) dominate the
// O(d(b)·d(c)) per-edge cost, so they are scheduled one edge per work unit
// after the chunked light edges — no worker inherits a contiguous block of
// hubs. Bit-identical to the sequential CountPaths at any worker count.
func CountPath4(g *temporal.Graph, delta temporal.Timestamp, opts Options) PathCounter {
	return CountPath4Range(g, delta, opts, 0, g.NumEdges())
}

// CountPath4Range counts the 4-node paths whose structural-middle edge ID
// lies in [lo, hi) (clamped to [0, NumEdges)). Every path instance has a
// unique middle edge, so partial counters over any partition of the edge
// IDs sum to CountPath4's full counter — the per-shard work unit of the
// scatter/gather serving path (internal/shard).
func CountPath4Range(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) PathCounter {
	var total PathCounter
	perW := make([]PathCounter, opts.workers())
	ForEdgesRange(g, opts, lo, hi, func(w int, id temporal.EdgeID) {
		countPathsMiddle(g, id, delta, &perW[w])
	})
	for w := range perW {
		total.Add(&perW[w])
	}
	return total
}

// ForEdgesRange schedules body exactly once per edge ID in [lo, hi)
// (clamped to [0, NumEdges)) with the two-stage machinery the path counter
// established: light edges are pulled in dynamic chunks, while edges with a
// heavy endpoint (degree > thrd) are scheduled one per work unit so no
// worker inherits a contiguous block of hubs. body runs concurrently with
// itself; the worker id indexes [0, opts.EffectiveWorkers()) so callers can
// accumulate into per-worker partials. With one worker, body runs on the
// caller's goroutine in ascending ID order. Exactly-once delivery is what
// keeps per-edge tallies bit-identical at any worker count — both
// CountPath4Range and the query compiler's edge-pivot plans
// (internal/query) schedule through this function.
func ForEdgesRange(g *temporal.Graph, opts Options, lo, hi int, body func(worker int, id temporal.EdgeID)) {
	if lo < 0 {
		lo = 0
	}
	if hi > g.NumEdges() {
		hi = g.NumEdges()
	}
	if lo >= hi {
		return
	}
	workers := opts.workers()
	if workers == 1 {
		for id := lo; id < hi; id++ {
			body(0, temporal.EdgeID(id))
		}
		return
	}
	thrd := effThrd(g, opts)
	src, dst := g.Src(), g.Dst()
	var light, heavy []temporal.EdgeID
	for id := lo; id < hi; id++ {
		if thrd > 0 && (g.Degree(src[id]) > thrd || g.Degree(dst[id]) > thrd) {
			heavy = append(heavy, temporal.EdgeID(id))
		} else {
			light = append(light, temporal.EdgeID(id))
		}
	}
	engine.Dispatch(workers, opts.chunk(), len(light), func(w, a, b int) {
		for _, id := range light[a:b] {
			body(w, id)
		}
	})
	engine.Dispatch(workers, 1, len(heavy), func(w, a, b int) {
		for _, id := range heavy[a:b] {
			body(w, id)
		}
	})
}

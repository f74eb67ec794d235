package higher

import (
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Options configures the parallel higher-order counters. The zero value
// means: one worker per CPU, automatic degree threshold (the HARE top-20
// heuristic), default chunking. Both counters are exact at any setting —
// the options only steer scheduling, and engine.Sweep is what they steer:
// they are engine.Options without the static-schedule ablation.
type Options struct {
	// Workers is the number of goroutines (<= 0 selects GOMAXPROCS; 1 runs
	// everything on the caller's goroutine in ascending pivot order).
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

// engine converts to the scheduler's options: the one place the two structs
// meet. Defaults are resolved there, by engine alone.
func (o Options) engine() engine.Options {
	return engine.Options{Workers: o.Workers, DegreeThreshold: o.DegreeThreshold, ChunkSize: o.ChunkSize}
}

// EffectiveWorkers resolves Workers to the goroutine count a run actually
// uses (<= 0 selects GOMAXPROCS). Callers sizing per-worker accumulators
// for ForEdgesRange need the same resolution the scheduler applies.
func (o Options) EffectiveWorkers() int { return o.engine().EffectiveWorkers() }

// CountStar4 counts the 4-node, 3-edge star motifs over every center; see
// CountStar4Range.
func CountStar4(g *temporal.Graph, delta temporal.Timestamp, opts Options) Star4Counter {
	return CountStar4Range(g, delta, opts, 0, g.NumNodes())
}

// CountStar4Range counts the 4-node stars whose center node lies in the
// half-open ID range [lo, hi) (clamped to [0, NumNodes)). Every 4-node star
// has a unique center, so any partition of the node IDs yields partial
// counters that sum — in any order, the cells are exact uint64 tallies — to
// CountStar4's full counter: the per-shard work unit of the scatter/gather
// serving path (internal/shard).
//
// It is a caller of engine.Sweep: light centers are pulled in dynamic
// chunks, heavy centers (degree > thrd) go one at a time with both counter
// families split across workers — the all-triples counter by last-edge
// index, FAST-Star by first-edge index; both partitions are exact. Each
// worker sums both families over whatever it is handed and the complement
// is applied once, after the partials merge. Counts are bit-identical to
// the sequential Count at any setting.
func CountStar4Range(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) Star4Counter {
	eo := opts.engine()
	parts := make([]struct {
		all     [8]uint64
		counts  motif.Counts
		scratch *fast.Scratch
	}, eo.EffectiveWorkers())
	for w := range parts {
		parts[w].scratch = fast.NewScratch()
		parts[w].scratch.Grow(g.NumNodes())
	}
	engine.Sweep(g, eo, max(lo, 0), min(hi, g.NumNodes()),
		func(u int) int {
			if d := g.Degree(temporal.NodeID(u)); d >= 3 {
				return d
			}
			return -1 // a 4-node star needs three incident edges
		},
		func(w, u int) {
			p, su := &parts[w], g.Seq(temporal.NodeID(u))
			countAllTriples(su, delta, &p.all)
			fast.CountStarPairRange(su, delta, &p.counts, p.scratch, 0, su.Len())
		},
		func(w, u, from, to int) {
			p, su := &parts[w], g.Seq(temporal.NodeID(u))
			countAllTriplesRange(su, delta, &p.all, from, to)
			fast.CountStarPairRange(su, delta, &p.counts, p.scratch, from, to)
		})
	var all [8]uint64
	var counts motif.Counts
	for w := range parts {
		for i := range all {
			all[i] += parts[w].all[i]
		}
		counts.Add(&parts[w].counts)
	}
	return complement(&all, &counts)
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
// edges; see CountPath4Range and, for the schedule, ForEdgesRange.
// Bit-identical to the sequential CountPaths at any worker count.
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
	perW := make([]PathCounter, opts.EffectiveWorkers())
	ForEdgesRange(g, opts, lo, hi, func(w int, id temporal.EdgeID) {
		countPathsMiddle(g, id, delta, &perW[w])
	})
	for w := range perW {
		total.Add(&perW[w])
	}
	return total
}

// ForEdgesRange calls body exactly once per edge ID in [lo, hi) (clamped to
// [0, NumEdges)). It is engine.Sweep over edge pivots, an edge's degree
// being the larger of its endpoints': light edges are pulled in dynamic
// chunks, and since the O(d(b)·d(c)) per-edge cost has no inner range to
// split, each edge with a heavy endpoint (degree > thrd) is a work unit of
// its own, after the light ones — no worker inherits a contiguous block of
// hubs. body runs concurrently with itself; the worker id indexes
// [0, opts.EffectiveWorkers()) so callers can accumulate into per-worker
// partials. With one worker, body runs on the caller's goroutine in
// ascending ID order. Its callers are CountPath4Range and the query
// compiler's edge-pivot plans (internal/query).
func ForEdgesRange(g *temporal.Graph, opts Options, lo, hi int, body func(worker int, id temporal.EdgeID)) {
	src, dst := g.Src(), g.Dst()
	engine.Sweep(g, opts.engine(), max(lo, 0), min(hi, g.NumEdges()),
		func(id int) int { return max(g.Degree(src[id]), g.Degree(dst[id])) },
		func(w, id int) { body(w, temporal.EdgeID(id)) },
		nil)
}

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
// the options only steer scheduling, engine.Sweep for node pivots and
// engine.Dispatch for edge pivots: they are engine.Options without the
// static-schedule ablation.
type Options struct {
	// Workers is the number of goroutines (<= 0 selects GOMAXPROCS; 1 runs
	// everything on the caller's goroutine in ascending pivot order).
	Workers int
	// DegreeThreshold splits light from heavy work the same way the HARE
	// engine does: centers with temporal degree strictly greater are
	// scheduled with finer-grained parallelism. 0 selects the automatic
	// top-20 heuristic; negative disables the heavy stage. It steers node
	// pivots only (CountStar4Range, center plans, CountPath4Range's
	// triangles): edge pivots have no heavy stage, see SweepEdgesRange.
	DegreeThreshold int
	// ChunkSize is the number of light work items (centers, or edge pivots)
	// per dynamic work unit (default 64).
	ChunkSize int
}

// Engine converts to the scheduler's options: the one place the two structs
// meet. Defaults are resolved there, by engine alone.
func (o Options) Engine() engine.Options {
	return engine.Options{Workers: o.Workers, DegreeThreshold: o.DegreeThreshold, ChunkSize: o.ChunkSize}
}

// EffectiveWorkers resolves Workers to the goroutine count a run actually
// uses (<= 0 selects GOMAXPROCS): the scheduler's own resolution.
func (o Options) EffectiveWorkers() int { return o.Engine().EffectiveWorkers() }

// CountStar4 counts the 4-node, 3-edge star motifs over every center; see
// CountStar4Range.
func CountStar4(g *temporal.Graph, delta temporal.Timestamp, opts Options) Star4Counter {
	s4, _ := CountStar4Range(g, delta, opts, 0, g.NumIncidences())
	return s4
}

// CountStar4Range counts the 4-node stars found at the incidence positions
// [lo, hi) of g (clamped to [0, NumIncidences); see engine.Sweep): each star
// at its center, by its last edge. It returns them with the FAST-Star
// counters they are derived from — the 3-node stars and pairs found at the
// same positions: CountNode's pair, summed over the range. A star of either
// size has a unique center and last edge, and a pair instance is recorded
// once at each endpoint, in complementary cells, so any partition of the
// positions — boundaries inside a hub included — yields partial counters
// that sum (in any order: the cells are exact uint64 tallies) to the full
// ones: the per-shard work unit of the scatter/gather serving path
// (internal/shard).
//
// It is a caller of engine.Sweep: light centers are pulled in dynamic
// chunks, heavy centers (degree > thrd) and the centers a bound cuts go one
// at a time with their last-edge range split across workers, each slice one
// fast.SweepStarPairRange call that yields the star, pair and all-triples
// tallies together. Each worker sums them over whatever it is handed and the
// complement is applied once, after the partials merge. Counts are
// bit-identical to the sequential Count at any setting.
func CountStar4Range(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) (Star4Counter, motif.Counts) {
	eo := opts.Engine()
	parts := make([]struct {
		all     [8]uint64
		counts  motif.Counts
		scratch *fast.Scratch
	}, eo.EffectiveWorkers())
	for w := range parts {
		parts[w].scratch = fast.GetScratch(g.NumNodes())
		defer fast.PutScratch(parts[w].scratch)
	}
	count := func(w, u, from, to int) {
		p := &parts[w]
		fast.SweepStarPairRange(g.Seq(temporal.NodeID(u)), delta, &p.counts, &p.all, p.scratch, from, to)
	}
	engine.Sweep(g, eo, lo, hi,
		func(u int) int {
			if d := g.Degree(temporal.NodeID(u)); d >= 3 {
				return d
			}
			return -1 // every star and pair needs three edges at its center
		},
		func(w, u int) { count(w, u, 0, g.Degree(temporal.NodeID(u))) },
		count)
	var all [8]uint64
	var counts motif.Counts
	for w := range parts {
		for i := range all {
			all[i] += parts[w].all[i]
		}
		counts.Add(&parts[w].counts)
	}
	return complement(&all, &counts), counts
}

// CountPath4 counts the 4-node, 3-edge path motifs in parallel; see
// CountPath4Range. Bit-identical to the sequential CountPaths at any
// setting.
func CountPath4(g *temporal.Graph, delta temporal.Timestamp, opts Options) PathCounter {
	return CountPath4Range(g, delta, opts, 0, g.NumEdges())
}

// CountPath4Range is the share of the 4-node path count that belongs to the
// edge IDs [lo, hi) (clamped to [0, NumEdges)): every leg pair of the pivots
// in that range, minus the triangle correction (allpairs.go) of FAST-Tri
// over the incidence positions [2lo, 2hi). Every edge has exactly two
// incidences (self-loops are dropped), so a partition of the edge IDs maps
// to a partition of the incidences, and partial counters over any partition
// sum to CountPath4's full counter — the per-shard work unit of the
// scatter/gather serving path (internal/shard). Only such a sum means
// anything: a partial's own cells may even have wrapped below zero, which
// the uint64 sum undoes exactly.
//
// The pivots run in the flat dynamic chunks of engine.Dispatch, as
// SweepEdgesRange's do, two scratch-free merged walks each; the triangles
// run on engine.Sweep, whose DegreeThreshold slices the hubs. Counts are
// bit-identical at any setting.
func CountPath4Range(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) PathCounter {
	lo, hi = max(lo, 0), min(hi, g.NumEdges())
	eo := opts.Engine()
	parts := make([]struct {
		all LegPairs
		_   [64]byte // keeps neighbouring workers off each other's cache lines
	}, eo.EffectiveWorkers())
	pos := temporal.EdgePositions(g)
	engine.Dispatch(len(parts), eo.Chunk(), hi-lo, func(w, start, end int) {
		for id := lo + start; id < lo+end; id++ {
			addLegPairs(g, pos, temporal.EdgeID(id), delta, &parts[w].all)
		}
	})
	var all LegPairs
	for w := range parts {
		all.add(&parts[w].all)
	}
	var out PathCounter
	out.addPaths(&all)
	tri := engine.CountCategoryRange(g, delta, eo, 2*lo, 2*hi, motif.CategoryTri)
	out.subTriangles(&tri.Tri)
	return out
}

// SweepEdgesRange runs CountLegPairs for every pivot edge ID in [lo, hi)
// (clamped to [0, NumEdges)) and the given role orders, each worker with a
// pooled scratch and tallies of its own, and returns the merged tallies of
// leg pairs with different far ends: the 4-node paths with their middle in
// the range. Cells are exact integers, so the sums do not depend on which
// worker met which pivot. It is the range form of the sweep, for the query
// compiler's path plans, which read one role order: CountPath4Range, which
// needs all six, counts them without the sweep.
//
// The schedule is flat, dynamic chunks of Options.ChunkSize
// (engine.Dispatch): an edge pivot costs the sum of its endpoints'
// δ-windows, never a degree product, so a hub's edges need no stage of
// their own and DegreeThreshold does not apply. With one worker the pivots
// run on the caller's goroutine in ascending ID order.
func SweepEdgesRange(g *temporal.Graph, delta temporal.Timestamp, opts Options, orders LegOrders, lo, hi int) (diff LegPairs) {
	lo, hi = max(lo, 0), min(hi, g.NumEdges())
	eo := opts.Engine()
	parts := make([]struct {
		diff, same LegPairs
		scratch    *fast.Scratch
		_          [64]byte // keeps neighbouring workers off each other's cache lines
	}, eo.EffectiveWorkers())
	for w := range parts {
		parts[w].scratch = fast.GetScratch(g.NumNodes())
		defer fast.PutScratch(parts[w].scratch)
	}
	pos := temporal.EdgePositions(g)
	engine.Dispatch(len(parts), eo.Chunk(), hi-lo, func(w, start, end int) {
		p := &parts[w]
		for id := lo + start; id < lo+end; id++ {
			countLegPairs(g, pos, temporal.EdgeID(id), delta, orders, p.scratch, &p.diff, &p.same)
		}
	})
	for w := range parts {
		diff.add(&parts[w].diff)
	}
	return diff
}

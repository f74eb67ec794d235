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
	// triangles): edge pivots have no heavy stage, see CountPath4Range.
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
// The pivots run in the flat dynamic chunks of engine.Dispatch, one node
// pair's run at a time (allpairs.go): an edge pivot costs the sum of its
// endpoints' δ-windows, never a degree product, so a hub's edges need no
// stage of their own and DegreeThreshold does not apply to them. The
// run's first pivot in [lo, hi) walks the union of the run's δ-windows once
// and the others skip it. A run never leaves [lo, hi), and each pivot's
// tally is the same whichever run holds it, so a cut inside a pair's pivots
// changes no sum. Each worker reuses one run list and one ring of pivot
// marks, as large as the most pivots of one run within 2δ of each other.
// The triangles run on engine.Sweep, whose DegreeThreshold slices the hubs.
// Counts are bit-identical at any setting.
func CountPath4Range(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) PathCounter {
	lo, hi = max(lo, 0), min(hi, g.NumEdges())
	eo := opts.Engine()
	parts := make([]struct {
		all   LegPairs
		pairs pairScratch
		_     [64]byte // keeps neighbouring workers off each other's cache lines
	}, eo.EffectiveWorkers())
	engine.Dispatch(len(parts), eo.Chunk(), hi-lo, func(w, start, end int) {
		p := &parts[w]
		p.pairs.addRange(g, lo+start, lo+end, delta, lo, hi, &p.all)
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

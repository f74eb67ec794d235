// Package engine implements HARE, the paper's hierarchical parallel framework
// for the FAST counting algorithms, as one scheduler: Sweep.
//
// Two cooperating strategies (paper §IV-C), both inside Sweep:
//
//   - inter-node parallelism: workers dynamically pull chunks of pivots
//     (center nodes) from a shared atomic cursor (the analogue of OpenMP
//     dynamic scheduling);
//   - intra-node parallelism: pivots whose temporal degree exceeds a
//     threshold thrd are processed one at a time, with the center's edge
//     loop split across workers.
//
// Sweep is the only two-stage schedule in the repository and Options the
// only resolver of workers, thrd and chunk size. Its callers are run (the 36
// motifs, below, whole or as CountRange, and one category's kernel as
// CountCategoryRange, whose triangle half is also the query compiler's
// triangle plan and higher.CountPath4Range's triangle correction) and
// higher.CountStar4Range (4-node stars and the star and pair plans): the node
// pivots, whose cost grows with the degree, so one hub can outweigh whole
// chunks of others. Their ranges are incidence positions, not node IDs, so a
// range boundary may fall inside a hub, and the hub's two shares then go to
// the two ranges: the intra-node split of the paper, lifted to ranges (and
// through them to the shard tier's processes). A change to how work is
// scheduled is an edit to Sweep. Dispatch, the flat
// chunked loop underneath, is exported for the loops that have no heavy
// stage (higher.CountPath4Range's leg-pair walks, which query's path plans
// also read, whose per-edge cost is linear in the endpoints' δ-windows;
// nullmodel.SampleMatrices; approx.EstimateStrata).
//
// Every worker accumulates into private counters that are merged at the end
// (the analogue of OpenMP reduction), so the hot path has no shared mutable
// state.
//
// Deviation from the paper: HARE recounts every triangle at all three of its
// vertices to stay dependency free. Here each triangle is counted once, by
// its lowest vertex in (temporal degree, ID) order (see package fast): a
// pure function of the immutable graph, so equally dependency free and exact
// under every split below. The triangle half reads the graph's forward
// incidences (fast.CountTriForwardRange), built once per graph, so a heavy
// center never visits the first edges it does not own: its slices of S_u
// map to forward entries by binary search.
package engine

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Schedule selects how pivots are assigned to workers in Sweep's light
// stage.
type Schedule int

const (
	// ScheduleDynamic is the default: workers pull fixed-size chunks from an
	// atomic cursor as they become free.
	ScheduleDynamic Schedule = iota
	// ScheduleStatic pre-splits the pivot range into one contiguous block per
	// worker. It exists to reproduce the paper's Fig. 12(b) ablation
	// ("without thrd" / static OpenMP mode): long-tailed degree
	// distributions make it badly load imbalanced.
	ScheduleStatic
)

// Options configures a HARE run. The zero value means: one worker per CPU,
// automatic degree threshold (minimum degree of the top-20 nodes, the
// paper's default), dynamic scheduling, hierarchical mode on.
type Options struct {
	// Workers is the number of goroutines (#threads in the paper). <= 0
	// selects runtime.GOMAXPROCS(0).
	Workers int
	// DegreeThreshold is thrd: pivots with temporal degree strictly greater
	// are processed with intra-node parallelism. 0 selects the automatic
	// top-20 heuristic; negative disables the intra-node stage entirely
	// (flat inter-node parallelism, the "without thrd" ablation).
	DegreeThreshold int
	// Schedule selects dynamic (default) or static pivot assignment.
	Schedule Schedule
	// ChunkSize is the number of pivots per dynamic work unit (default 64).
	ChunkSize int
	// Done, when closed, stops the run: no worker takes another chunk, and
	// the run returns no answer (see Count). It is read once per chunk,
	// never per pivot. nil never stops; a served job passes its flight
	// context's Done.
	Done <-chan struct{}
}

// ErrStopped is the error of a run whose done channel was closed before it
// ended, for the callers that return an error (nullmodel.SampleMatrices).
var ErrStopped = errors.New("engine: run stopped")

// Stopped reports whether done has been closed. A nil done never is.
func Stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// EffectiveWorkers resolves Options.Workers to the goroutine count a run
// actually uses (<= 0 selects GOMAXPROCS): the size of the per-worker
// accumulators a Sweep caller indexes by worker id.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sequential reports whether the options leave nothing to schedule: one
// worker, the dynamic schedule and the automatic threshold. hare.Count runs
// its sequential FAST reference for these, not Sweep, and reports no
// threshold; a count assembled elsewhere for the same request (the shard
// tier's merge) reports what hare.Count would.
func (o Options) Sequential() bool {
	return o.EffectiveWorkers() == 1 && o.Schedule == ScheduleDynamic && o.DegreeThreshold == 0
}

// Chunk resolves Options.ChunkSize to the pivots per dynamic work unit a run
// actually uses (<= 0 selects 64).
func (o Options) Chunk() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return 64
}

// Count runs HARE over all 36 motifs and returns the merged counters, or
// nil when opts.Done was closed before the run ended: the counters of a
// stopped run may be partial, so none are returned.
func Count(g *temporal.Graph, delta temporal.Timestamp, opts Options) *motif.Counts {
	return run(g, delta, opts, 0, g.NumIncidences(), true, true)
}

// CountRange runs HARE over all 36 motifs for the incidence positions
// [lo, hi) only (see Sweep) and returns the raw counters: each star and pair
// triple is found at its center by its last edge, each triangle at its owner
// by its first, so the counters of any partition of [0, g.NumIncidences())
// sum — cell by cell, in any order — to Count's. They are summed before
// ToMatrix, which halves the pair cells: matrices of parts do not add up.
// It is the shard tier's count unit. Like Count, it returns nil once
// opts.Done is closed.
func CountRange(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) *motif.Counts {
	return run(g, delta, opts, lo, hi, true, true)
}

// CountCategoryRange is CountRange restricted to one category's kernel: the
// star/pair sweep for CategoryPair and CategoryStar (one kernel finds both;
// "HARE-Pair" reports the pair subset of it), FAST-Tri's owner-mode cells for
// CategoryTri ("HARE-Tri"); the other cells stay zero. Partials over any
// partition of [0, g.NumIncidences()) sum to the full range's, as
// CountRange's do. It is a motif= count's unit and the query compiler's
// triangle plan.
func CountCategoryRange(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int, cat motif.Category) *motif.Counts {
	tri := cat == motif.CategoryTri
	return run(g, delta, opts, lo, hi, !tri, tri)
}

// EffectiveDegreeThreshold reports the thrd a run with opts uses to split
// light from heavy pivots: the explicit Options.DegreeThreshold when set,
// otherwise the automatic top-20 heuristic, derived once per graph
// (temporal.DefaultDegreeThreshold). A return of 0 means the graph is too
// small for the heuristic and the run has no intra-node stage; negative
// means the caller disabled it. Callers (hare.Count's Result)
// surface this so reports show the threshold actually applied rather than
// the requested option.
func EffectiveDegreeThreshold(g *temporal.Graph, opts Options) int {
	if thrd := opts.DegreeThreshold; thrd != 0 {
		return thrd
	}
	return temporal.DefaultDegreeThreshold(g)
}

// Dispatch is the flat dynamic work loop under Sweep, exported for loops
// with no heavy stage (null-model samples, approx strata): workers
// goroutines repeatedly pull up-to-chunk-sized index ranges
// [start, end) ⊂ [0, n) from a shared atomic cursor until the range is
// exhausted, then Dispatch returns. body runs concurrently with itself;
// the worker id in [0, workers) lets callers index per-worker accumulators.
// workers and chunk below 1 are treated as 1; with one worker the chunks go
// in ascending order on the caller's goroutine. Once done is closed no
// worker takes another chunk, so Dispatch returns within one chunk of each
// worker, with part of the range undelivered: a caller passing a done
// reads Stopped(done) before trusting its tallies.
func Dispatch(workers, chunk, n int, done <-chan struct{}, body func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers == 1 {
		for start := 0; start < n && !Stopped(done); start += chunk {
			body(0, start, min(start+chunk, n))
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := int64(chunk)
			for !Stopped(done) {
				end := cursor.Add(c)
				start := end - c
				if start >= int64(n) {
					return
				}
				if end > int64(n) {
					end = int64(n)
				}
				body(w, int(start), int(end))
			}
		}(w)
	}
	wg.Wait()
}

// Sweep is HARE's two-stage schedule over the incidence positions [lo, hi)
// of g (clamped to [0, g.NumIncidences())): the one place the repository
// decides which worker runs which pivot. Position p is one (center, edge)
// pair of the CSR incident index (temporal.Graph.Incidence), so a range cut
// at equal positions holds about equal work however the degrees are skewed,
// where a cut at equal node IDs does not: the shard tier's ranges are these
// positions.
//
// degree(id) classifies a pivot: negative means it cannot host an instance
// and is never delivered; above thrd (EffectiveDegreeThreshold) it is
// heavy; otherwise light. It returns g.Degree(id) for every pivot it does not
// skip.
//
// Stage 1 walks the centers whose whole edge range lies inside [lo, hi), in
// chunks of Options.ChunkSize pulled from a shared cursor (ScheduleStatic:
// one contiguous block per worker instead), and calls light(worker, id) for
// every light pivot, setting the heavy ones aside.
//
// Stage 2 runs after every light pivot has finished. Heavy pivots go one at
// a time, each split into small dynamic slices: heavy(worker, id, from, to)
// is called with slices that partition [0, degree(id)) — the edge range of a
// center node, which each kernel reads as its own loop's index (first edges
// for FAST-Tri, last edges for the star/pair sweep). The center a bound falls
// strictly inside is delivered the same way, its slices partitioning only
// its share of [lo, hi); the other share is the neighbouring range's.
//
// Both stages read opts.Done once per chunk or slice (Dispatch): once it is
// closed the sweep returns early, and the caller discards its tallies.
// Otherwise every non-skipped (center, edge) position in the range is
// delivered exactly once, which is what keeps per-pivot integer tallies
// bit-identical at any setting and any partition of the positions.
// Callbacks run concurrently with themselves; worker ids lie in
// [0, opts.EffectiveWorkers()). One worker has nobody to split a hub with,
// so every whole pivot goes to light, on the caller's goroutine, in
// ascending ID order, and only a center cut by a bound gets a heavy call
// (one, after the light ones) — the sequential sweep is this code, not a
// second loop.
func Sweep(g *temporal.Graph, opts Options, lo, hi int, degree func(id int) int,
	light func(worker, id int), heavy func(worker, id, from, to int)) {
	lo, hi = max(lo, 0), min(hi, g.NumIncidences())
	if lo >= hi {
		return
	}
	type slice struct{ id, from, to int }
	var hubs []slice
	// The centers wholly inside the range are the IDs [first, end); a center
	// holding a bound at a non-zero offset is cut, and sliced in stage 2.
	u, off := g.Incidence(lo)
	v, offHi := g.Incidence(hi)
	first, end := int(u), int(v)
	if first == end { // both bounds inside one center
		hubs = append(hubs, slice{first, off, offHi})
	} else {
		if off > 0 {
			hubs = append(hubs, slice{first, off, g.Degree(u)})
			first++
		}
		if offHi > 0 {
			hubs = append(hubs, slice{end, 0, offHi})
		}
	}
	n := end - first
	workers := opts.EffectiveWorkers()
	thrd := math.MaxInt
	if workers > 1 {
		if t := EffectiveDegreeThreshold(g, opts); t > 0 {
			thrd = t
		}
	}
	chunk := opts.Chunk()
	if opts.Schedule == ScheduleStatic {
		chunk = (n + workers - 1) / workers
	}
	deferred := make([][]int, workers)
	Dispatch(workers, chunk, n, opts.Done, func(w, a, b int) {
		ids := deferred[w] // written back once per chunk: the headers share cache lines
		for id := first + a; id < first+b; id++ {
			switch d := degree(id); {
			case d < 0:
			case d > thrd:
				ids = append(ids, id)
			default:
				light(w, id)
			}
		}
		deferred[w] = ids
	})
	for _, ids := range deferred {
		for _, id := range ids {
			hubs = append(hubs, slice{id, 0, degree(id)})
		}
	}
	for _, h := range hubs {
		if degree(h.id) < 0 {
			continue // a skipped center cut by a bound
		}
		// Slices cost unevenly (FAST-Tri's first edges scan windows of
		// different lengths; a sweep slice replays the window before it), so
		// use small dynamic slices rather than a static split. One worker
		// takes a cut center's share whole.
		d := h.to - h.from
		size := d
		if workers > 1 {
			size = d/(workers*8) + 1
		}
		Dispatch(workers, size, d, opts.Done, func(w, from, to int) { heavy(w, h.id, h.from+from, h.from+to) })
	}
}

func run(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int, doStar, doTri bool) *motif.Counts {
	workers := opts.EffectiveWorkers()
	perWorker := make([]motif.Counts, workers)
	scratch := make([]*fast.Scratch, workers) // stars and pairs only; stays nil for triangles alone
	if doStar {
		for w := range scratch {
			scratch[w] = fast.NewScratch()
			scratch[w].Grow(g.NumNodes()) // keep the workers' hot loops allocation free
		}
	}
	minDegree := 3 // a star or pair needs three incident edges,
	var fw temporal.Forward
	if doTri {
		minDegree = 2 // a triangle two
		fw = temporal.ForwardIncidences(g)
	}
	// A center's whole edge range is the light unit, a slice of it the heavy
	// one: the star/pair sweep's slice is a last-edge range, FAST-Tri's a
	// first-edge range, and each kernel is the same loop either way.
	count := func(w, u, from, to int) {
		if doStar {
			var all [8]uint64 // the 4-node-star tally, which the 36 motifs do not use
			fast.SweepStarPairRange(g.Seq(temporal.NodeID(u)), delta, &perWorker[w], &all, scratch[w], from, to)
		}
		if doTri {
			fast.CountTriForwardRange(g, fw, temporal.NodeID(u), delta, &perWorker[w].Tri, from, to)
		}
	}
	Sweep(g, opts, lo, hi,
		func(u int) int {
			if d := g.Degree(temporal.NodeID(u)); d >= minDegree {
				return d
			}
			return -1 // cannot host any motif as center
		},
		func(w, u int) { count(w, u, 0, g.Degree(temporal.NodeID(u))) },
		count)
	if Stopped(opts.Done) {
		return nil
	}
	total := &motif.Counts{}
	for w := range perWorker {
		total.Add(&perWorker[w])
	}
	return total
}

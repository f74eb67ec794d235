// Package engine implements HARE, the paper's hierarchical parallel framework
// for the FAST counting algorithms.
//
// Two cooperating strategies (paper §IV-C):
//
//   - inter-node parallelism: workers dynamically pull chunks of center nodes
//     from a shared atomic cursor (the analogue of OpenMP dynamic
//     scheduling);
//   - intra-node parallelism: nodes whose temporal degree exceeds a threshold
//     thrd are processed one at a time, with the first-edge loop of
//     Algorithms 1/2 split across workers.
//
// Every worker accumulates into private counters that are merged at the end
// (the analogue of OpenMP reduction), so the hot path has no shared mutable
// state.
//
// Deviation from the paper: HARE recounts every triangle at all three of its
// vertices to stay dependency free. Here each triangle is counted once, by
// its lowest vertex in (temporal degree, ID) order (see package fast): a
// pure function of the immutable graph, so equally dependency free, exact
// under every split below, and a heavy center skips its first edges in O(1).
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Schedule selects how center nodes are assigned to workers in the
// inter-node stage.
type Schedule int

const (
	// ScheduleDynamic is the default: workers pull fixed-size chunks from an
	// atomic cursor as they become free.
	ScheduleDynamic Schedule = iota
	// ScheduleStatic pre-splits the node range into one contiguous block per
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
	// DegreeThreshold is thrd: nodes with temporal degree strictly greater
	// are processed with intra-node parallelism. 0 selects the automatic
	// top-20 heuristic; negative disables the intra-node stage entirely
	// (flat inter-node parallelism, the "without thrd" ablation).
	DegreeThreshold int
	// Schedule selects dynamic (default) or static node assignment.
	Schedule Schedule
	// ChunkSize is the number of center nodes per dynamic work unit
	// (default 64).
	ChunkSize int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers resolves Options.Workers to the goroutine count a run
// would actually use (<= 0 selects GOMAXPROCS).
func (o Options) EffectiveWorkers() int { return o.workers() }

func (o Options) chunk() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return 64
}

// Count runs HARE over all 36 motifs and returns the merged counters.
func Count(g *temporal.Graph, delta temporal.Timestamp, opts Options) *motif.Counts {
	return run(g, delta, opts, true, true)
}

// CountStarPair runs HARE for star and pair motifs only ("HARE-Pair" reports
// the pair subset of this run).
func CountStarPair(g *temporal.Graph, delta temporal.Timestamp, opts Options) *motif.Counts {
	return run(g, delta, opts, true, false)
}

// CountTri runs HARE for triangle motifs only ("HARE-Tri").
func CountTri(g *temporal.Graph, delta temporal.Timestamp, opts Options) *motif.Counts {
	return run(g, delta, opts, false, true)
}

// EffectiveDegreeThreshold reports the thrd a run with opts uses to split
// light from heavy centers: the explicit Options.DegreeThreshold when set,
// otherwise the automatic top-20 heuristic. A return of 0 means the graph
// is too small for the heuristic and the run has no intra-node stage;
// negative means the caller disabled it. Callers (hare.Count's Result)
// surface this so reports show the threshold actually applied rather than
// the requested option.
func EffectiveDegreeThreshold(g *temporal.Graph, opts Options) int {
	if thrd := opts.DegreeThreshold; thrd != 0 {
		return thrd
	}
	return temporal.TopKDegreeThreshold(g, 20)
}

// Dispatch is HARE's dynamic work scheduler, exported so sibling subsystems
// (higher-order counting, null-model ensembles) parallelise with the same
// machinery: workers goroutines repeatedly pull up-to-chunk-sized index
// ranges [start, end) ⊂ [0, n) from a shared atomic cursor until the range
// is exhausted, then Dispatch returns. body runs concurrently with itself;
// the worker id in [0, workers) lets callers index per-worker accumulators.
// workers and chunk below 1 are treated as 1; with one worker the whole
// range is delivered in a single call on the caller's goroutine.
func Dispatch(workers, chunk, n int, body func(worker, start, end int)) {
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
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := int64(chunk)
			for {
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

func run(g *temporal.Graph, delta temporal.Timestamp, opts Options, doStar, doTri bool) *motif.Counts {
	workers := opts.workers()
	thrd := EffectiveDegreeThreshold(g, opts)
	if opts.DegreeThreshold == 0 && thrd == 0 {
		thrd = int(^uint(0) >> 1) // tiny graph: no intra-node stage
	}

	var light, heavy []temporal.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		d := g.Degree(temporal.NodeID(u))
		if d < 3 && (!doTri || d < 2) {
			continue // cannot host any motif as center
		}
		if thrd > 0 && d > thrd {
			heavy = append(heavy, temporal.NodeID(u))
		} else {
			light = append(light, temporal.NodeID(u))
		}
	}

	perWorker := make([]*motif.Counts, workers)
	scratch := make([]*fast.Scratch, workers) // FAST-Star only; stays nil for CountTri
	for w := range perWorker {
		perWorker[w] = &motif.Counts{}
		if doStar {
			scratch[w] = fast.NewScratch()
			scratch[w].Grow(g.NumNodes()) // keep the workers' hot loops allocation free
		}
	}

	// Stage 1: inter-node parallelism over light centers.
	interNode(g, delta, opts, light, perWorker, scratch, doStar, doTri)

	// Stage 2: intra-node parallelism, one heavy center at a time.
	for _, u := range heavy {
		intraNode(g, u, delta, workers, perWorker, scratch, doStar, doTri)
	}

	total := &motif.Counts{}
	for _, c := range perWorker {
		total.Add(c)
	}
	return total
}

func interNode(g *temporal.Graph, delta temporal.Timestamp, opts Options,
	nodes []temporal.NodeID, perWorker []*motif.Counts, scratch []*fast.Scratch,
	doStar, doTri bool) {
	workers := len(perWorker)
	var wg sync.WaitGroup
	countNodes := func(w int, batch []temporal.NodeID) {
		for _, u := range batch {
			if doStar {
				fast.CountStarPairNode(g, u, delta, perWorker[w], scratch[w])
			}
			if doTri {
				fast.CountTriNode(g, u, delta, &perWorker[w].Tri, true)
			}
		}
	}
	switch opts.Schedule {
	case ScheduleStatic:
		per := (len(nodes) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * per
			if lo >= len(nodes) {
				break
			}
			hi := min(lo+per, len(nodes))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				countNodes(w, nodes[lo:hi])
			}(w, lo, hi)
		}
	default:
		Dispatch(workers, opts.chunk(), len(nodes), func(w, start, end int) {
			countNodes(w, nodes[start:end])
		})
		return
	}
	wg.Wait()
}

func intraNode(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp,
	workers int, perWorker []*motif.Counts, scratch []*fast.Scratch,
	doStar, doTri bool) {
	su := g.Seq(u)
	// First-edge iterations near the start of S_u dominate (longer suffix to
	// scan), so use small dynamic chunks rather than a static split.
	Dispatch(workers, su.Len()/(workers*8)+1, su.Len(), func(w, start, end int) {
		if doStar {
			fast.CountStarPairRange(su, delta, perWorker[w], scratch[w], start, end)
		}
		if doTri {
			fast.CountTriRange(g, u, delta, &perWorker[w].Tri, true, start, end)
		}
	})
}

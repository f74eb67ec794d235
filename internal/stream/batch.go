package stream

import (
	"fmt"
	"math"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// MinParallelBatch is the batch size below which fan-out overhead outweighs
// the parallel scans and AddBatch falls back to the sequential path.
// Callers tuning snapshot granularity against ingest parallelism (e.g.
// cmd/harestream) can use it to tell which side of the trade they are on.
const MinParallelBatch = 256

// batchChunk is the number of edges per dynamic work unit in the scan
// phases (the engine package's chunked-cursor discipline).
const batchChunk = 256

// AddBatch ingests a batch of edges, equivalent to calling Add for each in
// order but with the scans fanned out over the counter's workers: the
// windows are appended on the caller's goroutine, then every batch edge's
// arrival scan (and, in sliding mode, every expiry's retirement scan) runs
// under engine.Dispatch into per-worker private counters that are merged at
// the end. Because each edge's scans are bounded by explicit (EdgeID, time)
// predicates rather than by mutable window state, the merged tallies are
// bit-identical to sequential Add.
//
// The batch is validated up front and rejected atomically: on error no edge
// of the batch has been ingested. Self-loops are counted and dropped, as in
// Add.
func (c *Counter) AddBatch(edges []temporal.Edge) error {
	last, started, nodes := c.lastT, c.started, c.nodes
	nonLoops := 0
	for i, e := range edges {
		if e.From < 0 || e.To < 0 {
			return fmt.Errorf("stream: batch edge %d: negative node id (%d,%d)", i, e.From, e.To)
		}
		if started && e.Time < last {
			return fmt.Errorf("stream: batch edge %d: out-of-order edge at t=%d (last %d)", i, e.Time, last)
		}
		started, last = true, e.Time
		nodes = max(nodes, int(e.From)+1, int(e.To)+1)
		if e.From != e.To {
			nonLoops++
		}
	}
	if int64(c.nextID) > math.MaxInt32-int64(nonLoops) {
		// See the matching guard in Add: int32 EdgeIDs must not wrap.
		return fmt.Errorf("stream: batch of %d edges would exhaust the edge id space (%d ingested)", nonLoops, c.nextID)
	}
	if len(edges) == 0 {
		return nil
	}
	c.nodes = nodes
	if c.opts.Workers < 2 || len(edges) < MinParallelBatch {
		s := fast.GetScratch(c.nodes)
		for _, e := range edges {
			c.addValidated(e.From, e.To, e.Time, s)
		}
		fast.PutScratch(s)
		return nil
	}

	// Assign IDs up front; the counting phases only need (id, u, v, t).
	recs := make([]edgeRec, 0, len(edges))
	id := c.nextID
	for _, e := range edges {
		if e.From == e.To {
			c.loops++
			continue
		}
		recs = append(recs, edgeRec{id: id, u: e.From, v: e.To, t: e.Time})
		id++
	}
	c.nextID = id
	c.started, c.lastT = true, last
	cutoff := last - c.opts.Delta
	if len(recs) == 0 {
		// Nothing to count, but the watermark still advanced: expire what
		// fell out of the window, as a loop of Add calls would have.
		return c.Advance(last)
	}

	// Append both half-edges of every batch edge in batch order, so each
	// node's window stays in EdgeID order.
	for _, r := range recs {
		c.window(r.u).push(r.id, r.t, r.v, true)
		c.window(r.v).push(r.id, r.t, r.u, false)
	}

	// Arrival scans over the batch, worker-private counters. The
	// (ID < id, Time >= t-δ) window predicate reconstructs each edge's
	// exact as-of-arrival state from the already-appended windows, so scan
	// order across workers cannot change the sums.
	c.scanPhase(recs, false)

	// Sliding: queue the batch, pop everything now expired, and run the
	// retirement scans concurrently too — each expiring edge's companions
	// are fixed by the (ID > id, Time <= t+δ) predicate.
	if c.opts.Mode == Sliding {
		for _, r := range recs {
			c.fifo.push(r)
		}
		if popped := c.fifo.popExpired(cutoff); len(popped) > 0 {
			c.scanPhase(popped, true)
		}
		c.fifo.compact()
	}

	// Reclaim expired window prefixes. Purely a memory operation: the scans
	// above never look behind the cutoff.
	for _, r := range recs {
		c.windows[r.u].trim(cutoff)
		c.windows[r.v].trim(cutoff)
	}
	return nil
}

// scanPhase fans the per-edge scans of recs out over up to one worker per
// batchChunk edges, with private counters and pooled scratches
// (engine.Dispatch's chunked cursor), then merges them into the counter's
// tallies (retire selects the retirement scans and the retired
// accumulator).
func (c *Counter) scanPhase(recs []edgeRec, retire bool) {
	workers := min(c.opts.Workers, (len(recs)+batchChunk-1)/batchChunk)
	perWorker := make([]motif.Counts, workers)
	scratch := make([]*fast.Scratch, workers)
	delta := c.opts.Delta
	engine.Dispatch(workers, batchChunk, len(recs), nil, func(w, start, end int) {
		if scratch[w] == nil {
			scratch[w] = fast.GetScratch(c.nodes)
		}
		counts, s := &perWorker[w], scratch[w]
		for _, r := range recs[start:end] {
			if retire {
				uw, vw := c.peek(r.u).after(r.id, r.t+delta), c.peek(r.v).after(r.id, r.t+delta)
				countRetire(counts, uw, vw, r.u, r.v, r.t, delta, s)
			} else {
				uw, vw := c.peek(r.u).before(r.t-delta, r.id), c.peek(r.v).before(r.t-delta, r.id)
				countArrival(counts, uw, vw, r.u, r.v, delta, s)
			}
		}
	})
	total := &c.counts
	if retire {
		total = &c.retired
	}
	for w := range perWorker {
		total.Add(&perWorker[w])
		if scratch[w] != nil {
			fast.PutScratch(scratch[w])
		}
	}
}

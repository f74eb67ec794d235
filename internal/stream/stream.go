// Package stream provides exact online δ-temporal motif counting for edge
// streams — the "frequently updated dynamic systems" the paper's
// introduction motivates. Edges arrive in non-decreasing time order; after
// every arrival the counter holds the exact cumulative counts of all motif
// instances completed so far and, in sliding mode, the exact counts of the
// instances lying entirely inside the last δ window.
//
// The counting routines are the batch ones, run on each new edge's
// δ-windows. The newest edge is the *last* edge of every newly completed
// instance: fast.CountBefore, the time mirror of FAST-Star's window loop
// (Algorithm 1), counts the completed star/pair triples in each endpoint's
// backward window, and higher.CountLegPairsIn, the pair sweep behind path4,
// counts the completed triangles as the legs at the two endpoints with one
// common far end. Per-edge cost is O(d^δ) — the same asymptotics as batch
// FAST, paid incrementally. Sliding mode additionally runs the forward scans
// when an edge expires: the expiring edge is the *first* edge of every
// instance leaving the window, so fast.CountAfter (Algorithm 1's loop for
// one first edge) and the sweep's forward orders retire them exactly.
//
// Per-node window state is one dense table indexed by node ID, 8 bytes a
// slot up to the largest ID ingested, beside the scans' pooled fast.Scratch
// at 20 bytes a slot: the memory model of batch counting. AddBatch appends
// and trims those windows on the caller's goroutine and fans the arrival
// and retirement scans out under engine.Dispatch, with private per-worker
// counters merged at the end (the engine package's reduction discipline),
// so results stay bit-identical to sequential Add and to batch hare.Count.
package stream

import (
	"fmt"
	"math"
	"runtime"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Mode selects what Counter.Matrix-family accessors can report.
type Mode int

const (
	// Cumulative counts every instance completed since the stream began.
	// This is the cheapest mode: expired edges are forgotten, never
	// re-examined.
	Cumulative Mode = iota
	// Sliding additionally retires instances as their first edge leaves the
	// δ window, so WindowMatrix reports exactly the instances whose edges
	// all lie in [t_latest-δ, t_latest]. Roughly doubles per-edge work.
	Sliding
)

// Options configures a Counter. The zero value of everything but Delta is
// usable: cumulative mode, GOMAXPROCS batch workers.
type Options struct {
	// Delta is the motif window δ (>= 0).
	Delta temporal.Timestamp
	// Mode selects cumulative-only or sliding-window counting.
	Mode Mode
	// Workers is the goroutine count for AddBatch's scans. <= 0 selects
	// runtime.GOMAXPROCS(0). Sequential Add ignores it.
	Workers int
}

// Counter is an exact online motif counter. The zero value is not usable;
// call New or NewCounter.
type Counter struct {
	opts    Options
	windows []*nodeWindow // indexed by node ID; nil until the node is seen

	counts  motif.Counts // completed instances (cumulative)
	retired motif.Counts // expired instances (sliding mode only)
	fifo    edgeFIFO     // live edges pending expiry (sliding mode only)

	nextID  temporal.EdgeID
	lastT   temporal.Timestamp
	started bool
	loops   uint64
	nodes   int // one past the largest node ID ingested: the scratch size
}

// New returns an empty cumulative Counter with the given window δ.
func New(delta temporal.Timestamp) (*Counter, error) {
	return NewCounter(Options{Delta: delta})
}

// NewSliding returns an empty sliding-window Counter with window δ.
func NewSliding(delta temporal.Timestamp) (*Counter, error) {
	return NewCounter(Options{Delta: delta, Mode: Sliding})
}

// NewCounter returns an empty Counter with the given options.
func NewCounter(opts Options) (*Counter, error) {
	if opts.Delta < 0 {
		return nil, fmt.Errorf("stream: negative δ (%d)", opts.Delta)
	}
	if opts.Mode != Cumulative && opts.Mode != Sliding {
		return nil, fmt.Errorf("stream: unknown mode (%d)", opts.Mode)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Counter{opts: opts}, nil
}

// Delta returns the counter's window.
func (c *Counter) Delta() temporal.Timestamp { return c.opts.Delta }

// Mode returns the counter's counting mode.
func (c *Counter) Mode() Mode { return c.opts.Mode }

// Edges returns the number of edges ingested (self-loops excluded).
func (c *Counter) Edges() int { return int(c.nextID) }

// SelfLoopsDropped returns how many self-loop edges were ignored.
func (c *Counter) SelfLoopsDropped() uint64 { return c.loops }

// Matrix returns the cumulative exact per-motif counts over everything
// ingested so far, in every mode.
func (c *Counter) Matrix() motif.Matrix { return c.counts.ToMatrix() }

// WindowMatrix returns the exact per-motif counts of the instances whose
// edges all lie in the current window [t-δ, t], where t is the largest
// timestamp seen (via Add, AddBatch, or Advance). Only sliding-mode
// counters track the retirements this needs.
func (c *Counter) WindowMatrix() (motif.Matrix, error) {
	if c.opts.Mode != Sliding {
		return motif.Matrix{}, fmt.Errorf("stream: WindowMatrix requires Sliding mode")
	}
	live := c.counts
	live.Sub(&c.retired)
	return live.ToMatrix(), nil
}

// window returns node u's window, growing the table and creating the
// window if needed.
func (c *Counter) window(u temporal.NodeID) *nodeWindow {
	if int(u) >= len(c.windows) {
		c.windows = append(c.windows, make([]*nodeWindow, int(u)+1-len(c.windows))...)
	}
	if c.windows[u] == nil {
		c.windows[u] = &nodeWindow{}
	}
	return c.windows[u]
}

// peek returns node u's window or nil, without creating it.
func (c *Counter) peek(u temporal.NodeID) *nodeWindow {
	if int(u) >= len(c.windows) {
		return nil
	}
	return c.windows[u]
}

// Add ingests the directed edge u -> v at time t. Times must be
// non-decreasing; equal timestamps are ordered by arrival, matching the
// batch algorithms' tie convention. Self-loops are counted and dropped.
func (c *Counter) Add(u, v temporal.NodeID, t temporal.Timestamp) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("stream: negative node id (%d,%d)", u, v)
	}
	if c.started && t < c.lastT {
		return fmt.Errorf("stream: out-of-order edge at t=%d (last %d)", t, c.lastT)
	}
	if c.nextID >= math.MaxInt32 {
		// EdgeIDs are int32 and every window scan relies on their monotonic
		// order; wrapping would corrupt counts silently, so refuse instead.
		return fmt.Errorf("stream: edge id space exhausted after %d edges", c.nextID)
	}
	c.nodes = max(c.nodes, int(u)+1, int(v)+1)
	s := fast.GetScratch(c.nodes)
	c.addValidated(u, v, t, s)
	fast.PutScratch(s)
	return nil
}

func (c *Counter) addValidated(u, v temporal.NodeID, t temporal.Timestamp, s *fast.Scratch) {
	c.started, c.lastT = true, t
	cutoff := t - c.opts.Delta
	if c.opts.Mode == Sliding {
		c.retireExpired(cutoff, s)
	}
	if u == v {
		c.loops++
		return
	}
	id := c.nextID
	c.nextID++

	wu, wv := c.window(u), c.window(v)
	uw := wu.before(cutoff, id)
	vw := wv.before(cutoff, id)
	countArrival(&c.counts, uw, vw, u, v, c.opts.Delta, s)

	wu.push(id, t, v, true)
	wv.push(id, t, u, false)
	wu.trim(cutoff)
	wv.trim(cutoff)
	if c.opts.Mode == Sliding {
		c.fifo.push(edgeRec{id: id, u: u, v: v, t: t})
	}
}

// retireExpired pops every live edge older than cutoff and subtracts the
// instances it leads. Pops happen in EdgeID order, so each expiring edge is
// the chronologically first edge of every instance it still participates
// in; its companions are exactly the in-window edges that follow it
// (ID greater, time within δ) — see countRetire.
func (c *Counter) retireExpired(cutoff temporal.Timestamp, s *fast.Scratch) {
	for _, r := range c.fifo.popExpired(cutoff) {
		uw := c.peek(r.u).after(r.id, r.t+c.opts.Delta)
		vw := c.peek(r.v).after(r.id, r.t+c.opts.Delta)
		countRetire(&c.retired, uw, vw, r.u, r.v, r.t, c.opts.Delta, s)
	}
	c.fifo.compact()
}

// Advance moves the sliding window's right edge to time t without ingesting
// an edge, expiring everything older than t-δ — e.g. to drain a quiet
// stream for a dashboard. Subsequent edges must not be older than t.
// In cumulative mode it only enforces the time watermark.
func (c *Counter) Advance(t temporal.Timestamp) error {
	if c.started && t < c.lastT {
		return fmt.Errorf("stream: Advance to t=%d behind watermark %d", t, c.lastT)
	}
	c.started, c.lastT = true, t
	if c.opts.Mode == Sliding {
		s := fast.GetScratch(c.nodes)
		c.retireExpired(t-c.opts.Delta, s)
		fast.PutScratch(s)
	}
	return nil
}

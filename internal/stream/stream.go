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
// Per-node window state is sharded by node hash, and AddBatch fans a batch
// of edges out over worker goroutines with private per-worker counters
// merged at the end (the engine package's reduction discipline), so ingest
// throughput and state maintenance both scale across cores while results
// stay bit-identical to sequential Add and to batch hare.Count. The scans'
// per-neighbour counters live on a pooled fast.Scratch covering every node ID
// up to the largest ingested, 20 bytes each: the memory model of batch
// counting.
package stream

import (
	"fmt"
	"math"
	"math/bits"
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
// usable: cumulative mode, GOMAXPROCS batch workers, automatic shard count.
type Options struct {
	// Delta is the motif window δ (>= 0).
	Delta temporal.Timestamp
	// Mode selects cumulative-only or sliding-window counting.
	Mode Mode
	// Workers is the goroutine count for AddBatch fan-out. <= 0 selects
	// runtime.GOMAXPROCS(0). Sequential Add ignores it.
	Workers int
	// Shards is the number of node-window shards (rounded up to a power of
	// two). <= 0 derives it from Workers. More shards than workers keeps
	// the per-shard append loops balanced under skewed node hashes.
	Shards int
}

// Counter is an exact online motif counter. The zero value is not usable;
// call New or NewCounter.
type Counter struct {
	opts      Options
	shardBits uint
	shards    []windowShard

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
	if opts.Shards <= 0 {
		opts.Shards = 4 * opts.Workers
	}
	bitsN := uint(bits.Len(uint(opts.Shards - 1)))
	if bitsN == 0 {
		bitsN = 1 // at least two shards so shardOf's shift stays in range
	}
	c := &Counter{
		opts:      opts,
		shardBits: bitsN,
		shards:    make([]windowShard, 1<<bitsN),
	}
	for i := range c.shards {
		c.shards[i].windows = make(map[temporal.NodeID]*nodeWindow)
	}
	return c, nil
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

// window returns node u's window, creating it if needed.
func (c *Counter) window(u temporal.NodeID) *nodeWindow {
	return c.shards[shardOf(u, c.shardBits)].window(u)
}

// peek returns node u's window or nil, without creating it.
func (c *Counter) peek(u temporal.NodeID) *nodeWindow {
	return c.shards[shardOf(u, c.shardBits)].windows[u]
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

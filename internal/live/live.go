// Package live implements mutable, versioned datasets for the hared
// serving layer — the "frequently updated dynamic systems" the paper's
// introduction motivates, made reachable through HTTP.
//
// A Dataset pairs an exact sliding-window stream.Counter with an
// appendable edge log and a monotonic version: every accepted ingest
// batch appends to the log, feeds the online counter, and advances the
// version by one. Reads count against immutable graph snapshots: the first
// read after an ingest folds the log into the previous snapshot
// (temporal.Extend) without holding up further ingests. The serving layer
// keys its result cache on (dataset, version), so cached answers for an
// older version die naturally on append — no TTLs, no explicit
// invalidation fan-out.
// Batches are validated and rejected atomically with the stream tier's
// line-numbered errors: on error not one edge of the batch has been
// ingested.
//
// On top of the sliding window sits the watch pipeline: each accepted
// batch takes one WindowMatrix reading, compares every motif's in-window
// count against the trailing ensemble of previous readings (Welford
// mean/std), and publishes an Alert to subscribers whenever a count
// crosses the z-score threshold — the examples/anomaly and
// examples/streamwatch logic running as a real server workload
// (docs/LIVE.md documents the rule and the SSE framing).
package live

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"hare/internal/motif"
	"hare/internal/stream"
	"hare/internal/temporal"
)

// Defaults for the zero values of Options.
const (
	// DefaultZ is the alert z-score threshold.
	DefaultZ = 4.0
	// DefaultMinCount is the minimum in-window count an alert requires —
	// a floor that keeps near-zero baselines from alerting on noise.
	DefaultMinCount = 5
	// DefaultWarmup is how many window readings seed the baseline before
	// any alert may fire.
	DefaultWarmup = 5
	// subscriberBuffer is each watch subscriber's channel depth; alerts
	// beyond it are dropped (and counted) rather than stalling ingest.
	subscriberBuffer = 32
)

// MaxNodes bounds a live dataset's node IDs: an ingest naming an ID at or
// above it is rejected whole, with no state change. The counting scratch,
// the stream's window table and the snapshot's CSR are all sized by the
// largest ID ingested, so this cap is what bounds the memory one ingest
// line can claim (docs/LIVE.md gives the measured worst case).
const MaxNodes = 1 << 24

// Options configures a live Dataset. The zero value of everything but
// Delta is usable.
type Options struct {
	// Delta is the motif window δ (>= 0) of the sliding stream counter.
	// It governs the watch window and the stream-tier ordering contract;
	// queries against the dataset's graph snapshot may use any δ.
	Delta temporal.Timestamp
	// Workers is the AddBatch fan-out (<= 0 selects GOMAXPROCS).
	Workers int
	// Z is the alert threshold: a motif alerts when its in-window count
	// sits Z trailing standard deviations above the trailing mean
	// (0 selects DefaultZ; a zero-variance baseline alerts on any rise).
	Z float64
	// MinCount is the minimum in-window count an alert requires
	// (0 selects DefaultMinCount).
	MinCount uint64
	// Warmup is the number of window readings that must seed the baseline
	// before alerts fire (0 selects DefaultWarmup).
	Warmup int
}

// Alert is one significance alert: a motif whose sliding-window count
// crossed the ensemble z-score threshold at some version.
type Alert struct {
	// Dataset and Version locate the reading: the alert fired on the
	// ingest batch that advanced the dataset to Version.
	Dataset string
	Version uint64
	// Motif is the crossing motif's label ("M11".."M66").
	Motif string
	// Window is the motif's count over the last δ; Mean and Std summarise
	// the trailing ensemble of window readings it was compared against.
	Window uint64
	Mean   float64
	Std    float64
	// Z is (Window-Mean)/Std, or +Inf when the trailing baseline has zero
	// variance (any rise off a flat baseline is infinitely surprising).
	Z float64
	// Watermark is the stream time of the reading (the batch's largest
	// timestamp).
	Watermark temporal.Timestamp
}

// MarshalJSON encodes the alert with the serving layer's ±Inf convention:
// a finite z emits "z", an infinite one emits "z_inf": "+" instead — JSON
// cannot represent Inf (the sigMotif convention of /v1/sig).
func (a Alert) MarshalJSON() ([]byte, error) {
	type wire struct {
		Dataset   string   `json:"dataset"`
		Version   uint64   `json:"version"`
		Motif     string   `json:"motif"`
		Window    uint64   `json:"window"`
		Mean      float64  `json:"mean"`
		Std       float64  `json:"std"`
		Z         *float64 `json:"z,omitempty"`
		ZInf      string   `json:"z_inf,omitempty"`
		Watermark int64    `json:"watermark"`
	}
	w := wire{
		Dataset: a.Dataset, Version: a.Version, Motif: a.Motif,
		Window: a.Window, Mean: a.Mean, Std: a.Std, Watermark: int64(a.Watermark),
	}
	if math.IsInf(a.Z, 1) {
		w.ZInf = "+"
	} else {
		z := a.Z
		w.Z = &z
	}
	return json.Marshal(w)
}

// IngestResult reports one accepted ingest batch.
type IngestResult struct {
	// Accepted is the number of edges appended (self-loops included; the
	// counter tallies and drops them, exactly like batch loading).
	Accepted int
	// Version is the dataset version after the batch; an empty batch
	// leaves it unchanged.
	Version uint64
	// Watermark is the stream time after the batch.
	Watermark temporal.Timestamp
	// Alerts are the significance alerts this batch triggered, in motif
	// grid order (they were also published to subscribers).
	Alerts []Alert
}

// Stats is a point-in-time snapshot of a dataset's operational counters,
// exported through /metrics as the hared_ingest_* / hared_watch_* series.
type Stats struct {
	Version     uint64
	Ingests     uint64 // accepted batches
	Edges       uint64 // accepted edges (self-loops included)
	Rejected    uint64 // rejected batches (parse, ordering, or range)
	Alerts      uint64 // alerts published
	Dropped     uint64 // alerts dropped on full subscriber channels
	Subscribers int
	// SnapshotBuilds counts the graph snapshots built (one per version
	// that was read) and SnapshotTime the time spent building them: what
	// reads pay for following a moving dataset.
	SnapshotBuilds uint64
	SnapshotTime   time.Duration
}

// Dataset is a named mutable dataset: an appendable edge log, an exact
// sliding-window online counter over it, a monotonic version, and the
// watch baseline. All methods are safe for concurrent use; ingest batches
// serialize on an internal mutex, so accepted batches (and the versions
// they stamp) form one total order.
//
// Lock order is buildMu before mu. Only Graph takes buildMu, and it never
// holds mu while it builds, so nothing but another snapshot read waits
// for a build.
type Dataset struct {
	name string
	opts Options

	buildMu sync.Mutex // held across a snapshot build: concurrent readers share it

	mu      sync.Mutex
	ctr     *stream.Counter
	log     []temporal.Edge // edges accepted after snapVer, not yet in snap
	version uint64
	lastT   temporal.Timestamp
	snap    *temporal.Graph // every edge accepted up to version snapVer (nil before the first read)
	snapVer uint64

	// Trailing baseline: Welford moments of every prior window reading,
	// per motif cell (grid order, matching motif.AllLabels).
	readings int
	mean     [36]float64
	m2       [36]float64

	subs    map[int]chan Alert
	nextSub int

	ingests, edges, rejected, alerts, dropped uint64
	snapBuilds                                uint64
	snapTime                                  time.Duration
}

// New returns an empty live dataset at version 1 (the version immutable
// registry datasets carry, so a first ingest moves it to 2 and invalidates
// anything cached against the empty graph).
func New(name string, opts Options) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("live: empty dataset name")
	}
	if opts.Z < 0 || opts.Warmup < 0 {
		return nil, fmt.Errorf("live: negative watch option (z=%g, warmup=%d)", opts.Z, opts.Warmup)
	}
	if opts.Z == 0 {
		opts.Z = DefaultZ
	}
	if opts.MinCount == 0 {
		opts.MinCount = DefaultMinCount
	}
	if opts.Warmup == 0 {
		opts.Warmup = DefaultWarmup
	}
	ctr, err := stream.NewCounter(stream.Options{
		Delta: opts.Delta, Mode: stream.Sliding, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{
		name:    name,
		opts:    opts,
		ctr:     ctr,
		version: 1,
		subs:    make(map[int]chan Alert),
	}, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Delta returns the sliding window δ.
func (d *Dataset) Delta() temporal.Timestamp { return d.opts.Delta }

// Version returns the current version: 1 when empty, +1 per accepted
// non-empty ingest batch.
func (d *Dataset) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// Edges returns the number of edges counted so far (self-loops excluded,
// matching the stream counter).
func (d *Dataset) Edges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctr.Edges()
}

// Matrix returns the exact cumulative per-motif counts over everything
// ingested — bit-identical to batch counting the same edges.
func (d *Dataset) Matrix() motif.Matrix {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctr.Matrix()
}

// WindowMatrix returns the exact per-motif counts of the instances lying
// entirely in the last δ.
func (d *Dataset) WindowMatrix() motif.Matrix {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := d.ctr.WindowMatrix()
	if err != nil {
		panic(err) // unreachable: the counter is always sliding-mode
	}
	return m
}

// Ingest appends one batch of timestamp-ordered edges. The batch is
// validated (node ids below MaxNodes here, the rest by the stream tier) and
// rejected atomically: on error, no edge has been ingested and the version
// is unchanged. Errors carry the batch index of the offending edge;
// IngestText carries input line numbers.
func (d *Dataset) Ingest(edges []temporal.Edge) (IngestResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, e := range edges {
		if e.From >= MaxNodes || e.To >= MaxNodes {
			d.rejected++
			return IngestResult{}, fmt.Errorf("live: batch edge %d: node id out of range (%d,%d)", i, e.From, e.To)
		}
	}
	if err := d.ctr.AddBatch(edges); err != nil {
		d.rejected++
		return IngestResult{}, err
	}
	return d.accepted(edges), nil
}

// accepted finalizes an already-counted batch: log append, version stamp,
// window reading, alert evaluation and publication. Callers hold d.mu.
func (d *Dataset) accepted(edges []temporal.Edge) IngestResult {
	res := IngestResult{Accepted: len(edges), Version: d.version, Watermark: d.lastT}
	if len(edges) == 0 {
		return res
	}
	d.log = append(d.log, edges...)
	d.version++
	d.lastT = edges[len(edges)-1].Time
	d.ingests++
	d.edges += uint64(len(edges))
	res.Version, res.Watermark = d.version, d.lastT

	wm, err := d.ctr.WindowMatrix()
	if err != nil {
		panic(err) // unreachable: the counter is always sliding-mode
	}
	res.Alerts = d.observeWindow(&wm)
	for _, a := range res.Alerts {
		d.publish(a)
	}
	return res
}

// observeWindow evaluates one window reading against the trailing
// baseline, returns the alerts it triggers, and folds the reading into
// the baseline. Callers hold d.mu.
func (d *Dataset) observeWindow(wm *motif.Matrix) []Alert {
	var out []Alert
	labels := motif.AllLabels()
	warm := d.readings >= d.opts.Warmup
	n := float64(d.readings)
	for i, l := range labels {
		cur := wm.At(l)
		if warm {
			mean := d.mean[i]
			std := math.Sqrt(d.m2[i] / n)
			rise := float64(cur) - mean
			if cur >= d.opts.MinCount && rise > 0 {
				z := math.Inf(1)
				if std > 0 {
					z = rise / std
				}
				if z >= d.opts.Z {
					out = append(out, Alert{
						Dataset: d.name, Version: d.version, Motif: l.String(),
						Window: cur, Mean: mean, Std: std, Z: z, Watermark: d.lastT,
					})
				}
			}
		}
		// Welford update — anomalous readings are folded in too, so a
		// sustained shift becomes the new normal instead of alerting
		// forever (the streamwatch trailing-baseline discipline).
		x := float64(cur)
		delta := x - d.mean[i]
		d.mean[i] += delta / (n + 1)
		d.m2[i] += delta * (x - d.mean[i])
	}
	d.readings++
	d.alerts += uint64(len(out))
	return out
}

// publish hands one alert to every subscriber without blocking: a
// subscriber whose channel is full loses the alert (counted in Dropped)
// rather than stalling ingest. Callers hold d.mu.
func (d *Dataset) publish(a Alert) {
	for _, ch := range d.subs {
		select {
		case ch <- a:
		default:
			d.dropped++
		}
	}
}

// Subscribe registers a watch subscriber and returns its alert channel
// plus a cancel function. The channel is buffered (alerts beyond the
// buffer are dropped, never blocking ingest) and closed by cancel.
func (d *Dataset) Subscribe() (<-chan Alert, func()) {
	d.mu.Lock()
	id := d.nextSub
	d.nextSub++
	ch := make(chan Alert, subscriberBuffer)
	d.subs[id] = ch
	d.mu.Unlock()
	cancel := func() {
		d.mu.Lock()
		if _, ok := d.subs[id]; ok {
			delete(d.subs, id)
			close(ch) // safe: publish only sends to channels still in subs
		}
		d.mu.Unlock()
	}
	return ch, cancel
}

// Graph returns an immutable graph snapshot of every edge accepted so far,
// cached until the next accepted batch. The serving layer counts against
// these snapshots, so any δ (not just the stream window) and every query
// kind work on live datasets.
//
// A stale snapshot is brought up to date by folding the edges logged since
// into it (temporal.Extend): a copy of the old snapshot's columns plus
// work in the size of the tail, not a rebuild. The build runs outside mu,
// on the log prefix captured when it started, so ingests proceed beside
// it; the graph returned is the dataset at that capture — at least the
// version the caller could have read before the call, possibly older than
// Version() after it. Concurrent callers queue on one build and share its
// result.
func (d *Dataset) Graph() *temporal.Graph {
	d.buildMu.Lock()
	defer d.buildMu.Unlock()
	d.mu.Lock()
	snap, tail, ver := d.snap, d.log, d.version
	fresh := snap != nil && d.snapVer == ver
	d.mu.Unlock()
	if fresh {
		return snap
	}
	// Ingest only appends to the log, so tail's elements are immutable.
	start := time.Now()
	snap = temporal.Extend(snap, tail)
	took := time.Since(start)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.snap, d.snapVer = snap, ver
	// The snapshot's columns now are the log up to ver; keep only what
	// arrived during the build, in storage of its own size.
	d.log = append([]temporal.Edge(nil), d.log[len(tail):]...)
	d.snapBuilds++
	d.snapTime += took
	return snap
}

// SnapshotDims reports the cached snapshot's dimensions without building
// one: ok is false when no snapshot for the current version exists yet.
func (d *Dataset) SnapshotDims() (nodes, edges int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.snap == nil || d.snapVer != d.version {
		return 0, 0, false
	}
	return d.snap.NumNodes(), d.snap.NumEdges(), true
}

// Stats returns the dataset's operational counters.
func (d *Dataset) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Version:     d.version,
		Ingests:     d.ingests,
		Edges:       d.edges,
		Rejected:    d.rejected,
		Alerts:      d.alerts,
		Dropped:     d.dropped,
		Subscribers: len(d.subs),

		SnapshotBuilds: d.snapBuilds,
		SnapshotTime:   d.snapTime,
	}
}

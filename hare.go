// Package hare is a scalable exact counter for δ-temporal motifs in large
// temporal graphs, reproducing "Scalable Motif Counting for Large-scale
// Temporal Graphs" (Gao et al., ICDE 2022).
//
// A temporal graph is a multiset of directed timestamped edges. Given a time
// window δ, hare exactly counts the instances of all 36 2-/3-node 3-edge
// δ-temporal motifs (the M11..M66 grid of Paranjape et al.) using the FAST
// algorithms and, optionally, the HARE hierarchical parallel framework:
//
//	g, err := hare.LoadFile("edges.txt", hare.LoadOptions{})
//	...
//	res, err := hare.Count(g, 600, hare.WithWorkers(8))
//	fmt.Println(res.Matrix.At(hare.MustLabel("M26"))) // temporal cycles
//
// The package is pure Go (stdlib only) and deterministic: ties between equal
// timestamps are broken by input order, identically in every algorithm.
package hare

import (
	"fmt"
	"io"
	"time"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Re-exported core types. Aliases keep the public surface in one import
// path while the implementation lives in internal packages.
type (
	// Graph is an immutable directed temporal multigraph.
	Graph = temporal.Graph
	// Builder accumulates edges and builds a Graph.
	Builder = temporal.Builder
	// Edge is a directed timestamped edge.
	Edge = temporal.Edge
	// NodeID identifies a node (dense non-negative integers).
	NodeID = temporal.NodeID
	// Timestamp is an edge time in integer units (conventionally seconds).
	Timestamp = temporal.Timestamp
	// HalfEdge is an edge viewed from one endpoint (time, neighbor, direction).
	HalfEdge = temporal.HalfEdge
	// Seq is a columnar view of a chronologically ordered half-edge sequence,
	// as returned by Graph.Seq and Graph.Between.
	Seq = temporal.Seq
	// LoadOptions controls edge-list parsing.
	LoadOptions = temporal.LoadOptions
	// Stats summarises a graph (Table II columns).
	Stats = temporal.Stats
	// Matrix holds per-motif counts in the paper's 6×6 grid.
	Matrix = motif.Matrix
	// Label names a motif cell, e.g. Label{Row:2, Col:6} = M26.
	Label = motif.Label
	// Category is the motif topology class (pair, star, triangle).
	Category = motif.Category
)

// Motif category constants.
const (
	CategoryPair = motif.CategoryPair
	CategoryStar = motif.CategoryStar
	CategoryTri  = motif.CategoryTri
)

// NewBuilder returns a Builder with capacity for n edges.
func NewBuilder(n int) *Builder { return temporal.NewBuilder(n) }

// FromEdges builds a Graph from an edge slice (self-loops are dropped).
func FromEdges(edges []Edge) *Graph { return temporal.FromEdges(edges) }

// LoadFile reads a graph file: ".hare" paths load as binary snapshots
// (mmapped, zero-parse — see LoadSnapshot), everything else as a
// whitespace-separated "u v t" edge list (gzip transparent). Text loading
// is parallel by default — plain files are memory-mapped and parsed in
// newline-aligned chunks, ".gz" files pipeline decompression with
// parsing — and its result does not depend on the worker count; see
// LoadOptions.Workers.
func LoadFile(path string, opts LoadOptions) (*Graph, error) {
	return temporal.LoadFile(path, opts)
}

// ReadEdgeList parses an edge list from a reader (parallel chunked parsing
// per LoadOptions.Workers).
func ReadEdgeList(r io.Reader, opts LoadOptions) (*Graph, error) {
	return temporal.ReadEdgeList(r, opts)
}

// SaveFile writes a graph to path: ".hare" (and ".hare.gz") paths save the
// binary snapshot format, everything else an edge list (gzip when the path
// ends in .gz).
func SaveFile(path string, g *Graph) error { return temporal.SaveFile(path, g) }

// Snapshot format errors, re-exported for callers classifying a failed
// LoadSnapshot/ReadSnapshot with errors.Is. A failed snapshot load always
// matches one of these or *SnapshotVersionError — never an untyped error —
// and never yields a partially loaded graph.
var (
	// ErrSnapshotMagic: the file does not start with the .hare magic.
	ErrSnapshotMagic = temporal.ErrSnapshotMagic
	// ErrSnapshotTruncated: the file ends before the canonical layout does.
	ErrSnapshotTruncated = temporal.ErrSnapshotTruncated
	// ErrSnapshotChecksum: a header or section checksum mismatched.
	ErrSnapshotChecksum = temporal.ErrSnapshotChecksum
	// ErrSnapshotMalformed: structurally invalid contents (bad section
	// table, implausible counts, or CSR invariants that do not hold).
	ErrSnapshotMalformed = temporal.ErrSnapshotMalformed
)

// SnapshotVersionError reports a snapshot written by a newer format
// version than this binary supports (match with errors.As; callers
// typically fall back to a text load — see FileLoader).
type SnapshotVersionError = temporal.SnapshotVersionError

// SaveSnapshot writes g to path in the versioned binary .hare snapshot
// format (docs/FORMAT.md): the graph's columnar CSR laid out section by
// section, little-endian, checksummed, and 8-byte aligned so LoadSnapshot
// can mmap it back without parsing. Output is deterministic — equal graphs
// produce bit-identical files.
func SaveSnapshot(path string, g *Graph) error { return temporal.SaveSnapshot(path, g) }

// LoadSnapshot reads a .hare snapshot into a read-only Graph. On
// little-endian 64-bit platforms with mmap support the columns alias the
// file mapping directly — zero-copy, zero-parse, page-cache shared across
// processes — and the mapping is released when the Graph is garbage
// collected; elsewhere the columns are read into freshly allocated slices.
// Every checksum and structural invariant is verified before the Graph is
// returned: corrupt or truncated files yield a typed error (see
// ErrSnapshotMagic and friends), never a crash or a silently wrong graph.
func LoadSnapshot(path string) (*Graph, error) { return temporal.LoadSnapshot(path) }

// WriteSnapshot writes g's snapshot bytes to w (SaveSnapshot's streaming
// form).
func WriteSnapshot(w io.Writer, g *Graph) error { return temporal.WriteSnapshot(w, g) }

// ReadSnapshot reads a snapshot from r into an owned (non-mmapped) Graph,
// with the same total validation as LoadSnapshot.
func ReadSnapshot(r io.Reader) (*Graph, error) { return temporal.ReadSnapshot(r) }

// ComputeStats returns summary statistics (topK bounds the top-degree list).
func ComputeStats(g *Graph, topK int) Stats { return temporal.ComputeStats(g, topK) }

// ParseLabel parses a motif name like "M26".
func ParseLabel(s string) (Label, error) { return motif.ParseLabel(s) }

// MustLabel is ParseLabel for known-good literals; it panics on error.
func MustLabel(s string) Label {
	l, err := motif.ParseLabel(s)
	if err != nil {
		panic(err)
	}
	return l
}

// AllLabels returns the 36 motif labels in grid order.
func AllLabels() []Label { return motif.AllLabels() }

// Result is the outcome of a counting run.
type Result struct {
	// Matrix holds the exact per-motif instance counts.
	Matrix Matrix
	// Elapsed is the wall-clock counting time (excluding graph loading).
	Elapsed time.Duration
	// Workers is the number of worker goroutines used.
	Workers int
	// DegreeThreshold is the effective thrd the HARE engine applied: the
	// WithDegreeThreshold value when given, otherwise the auto-derived
	// top-20 heuristic. 0 when the sequential path ran or the graph was too
	// small for an intra-node stage; negative when it was disabled.
	DegreeThreshold int
}

// Option configures Count.
type Option func(*config)

type config struct {
	workers  int
	thrd     int
	only     motif.Category
	hasOnly  bool
	schedule engine.Schedule
}

// WithWorkers sets the number of worker goroutines. 0 (default) selects
// GOMAXPROCS; 1 forces the sequential FAST algorithms. Either way every
// triangle is counted once, by its lowest-(temporal degree, ID) vertex.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithDegreeThreshold sets HARE's degree threshold thrd explicitly. The
// default derives it from the top-20 node degrees; a negative value disables
// intra-node parallelism.
func WithDegreeThreshold(t int) Option { return func(c *config) { c.thrd = t } }

// WithOnly restricts counting to one motif category (pair and star motifs
// are always counted together — one kernel finds both — so CategoryPair and
// CategoryStar are equivalent here, and the non-requested categories are
// simply zero in the result).
func WithOnly(cat Category) Option {
	return func(c *config) { c.only, c.hasOnly = cat, true }
}

// WithStaticSchedule switches HARE's inter-node stage to static node
// assignment (the paper's "without thrd" ablation uses this mode).
func WithStaticSchedule() Option {
	return func(c *config) { c.schedule = engine.ScheduleStatic }
}

// Count exactly counts all δ-temporal motif instances in g.
func Count(g *Graph, delta Timestamp, opts ...Option) (Result, error) {
	if g == nil {
		return Result{}, errNilGraph
	}
	if delta < 0 {
		return Result{}, errNegativeDelta(delta)
	}
	var c config
	for _, o := range opts {
		o(&c)
	}
	eo := engine.Options{Workers: c.workers, DegreeThreshold: c.thrd, Schedule: c.schedule}
	workers := eo.EffectiveWorkers()
	doStar := !c.hasOnly || c.only == CategoryPair || c.only == CategoryStar
	doTri := !c.hasOnly || c.only == CategoryTri

	start := time.Now()
	var res Result
	var counts *motif.Counts
	if eo.Sequential() {
		counts = sequential(g, delta, doStar, doTri)
	} else {
		if c.hasOnly {
			counts = engine.CountCategoryRange(g, delta, eo, 0, g.NumIncidences(), c.only)
		} else {
			counts = engine.Count(g, delta, eo)
		}
		res.DegreeThreshold = engine.EffectiveDegreeThreshold(g, eo)
	}
	res.Matrix = counts.ToMatrix()
	res.Elapsed = time.Since(start)
	res.Workers = workers
	if c.hasOnly {
		res.Matrix.KeepCategory(c.only)
	}
	return res, nil
}

// sequential runs the single-threaded FAST references: a path that shares
// no scheduling code with the engine, which is what lets differential tests
// and the benchmark's correctness gate compare the two.
func sequential(g *Graph, delta Timestamp, doStar, doTri bool) *motif.Counts {
	switch {
	case doStar && doTri:
		return fast.Count(g, delta)
	case doStar:
		return fast.CountStarPair(g, delta)
	default:
		return &motif.Counts{Tri: *fast.CountTri(g, delta)}
	}
}

// CountNode returns the motif counts in which node u participates as the
// counting center: stars centered at u, pairs incident to u, and every
// triangle containing u. Useful as a structural feature vector for one node.
func CountNode(g *Graph, u NodeID, delta Timestamp) (Matrix, error) {
	if g == nil {
		return Matrix{}, fmt.Errorf("hare: nil graph")
	}
	if u < 0 || int(u) >= g.NumNodes() {
		return Matrix{}, fmt.Errorf("hare: node %d out of range [0,%d)", u, g.NumNodes())
	}
	return fast.NodeProfile(g, u, delta), nil
}

// Package shard implements hared's scatter/gather tier: a coordinator
// that partitions one query into per-worker sub-requests, scatters them
// over HTTP with per-shard timeout/retry/backoff and hedged re-dispatch,
// and gathers the partial answers into the exact single-node result.
//
// The partitions ride the same associativity every in-process parallel
// path already uses, lifted across processes:
//
//   - /v1/count, /v1/star4 and center-plan /v1/query (star, pair and
//     triangle specs) split by incidence position, the (center, edge) pairs
//     of the graph's CSR incident index (temporal.Graph.Incidence): each star
//     or pair instance is found at its center by its last edge and each
//     triangle at its owner by its first, so per-range counters sum exactly,
//     and a hub a boundary falls inside is split between two workers instead
//     of weighing on one;
//   - /v1/path4 and path-plan /v1/query split by edge ID range, and their
//     partial is the range's leg pairs minus the triangle correction of
//     incidence positions [2lo, 2hi) (higher.CountPath4Range; a path spec
//     reads one of its cells): only the sum over a partition is a count;
//   - /v1/sig splits by sample-index range — per-sample seeds are
//     index-derived, and the coordinator re-folds the raw sample count
//     matrices through the same fixed-chunk Welford tree as a local run.
//
// Merged in deterministic shard order, the gathered answer is
// bit-identical to the single-node one at any worker count. The wire
// protocol is specified normatively in docs/SHARDING.md; this file is the
// reference implementation of its message types.
package shard

import (
	"fmt"

	"hare/internal/approx"
	"hare/internal/motif"
	"hare/internal/server"
)

// ProtoVersion is the scatter/gather wire-protocol version. A worker
// refuses (HTTP 426) sub-requests whose proto field it does not speak;
// versions are totally ordered and bumped on any incompatible change to
// the message shapes or merge semantics below. Version 2 moved the
// node-pivot ranges from node IDs to incidence positions and made the
// count partial raw counters: a version-1 worker would read the new bounds
// as node IDs and return a silently wrong partial. Version 3 made triangle
// specs center plans, whose query ranges are incidence positions where a
// version-2 end reads pivot-edge IDs, and retired the star4approx kind.
// Version 4 moved the summing kinds' counters into one raw-cell list
// (Partial.Cells), which a version-3 end neither sends nor reads. Version 5
// made the sub-request the normalized server.Request plus its range: a
// sampled sub-request is its family's kind with epsilon_set, where a
// version-4 end sends the path4approx and queryapprox kinds. Version 6 made
// a path4 partial the leg pairs of its edge range minus the triangle
// correction of incidence positions [2lo, 2hi), where a version-5 partial
// holds the paths whose middle edge lies in the range: mixed into one
// gather, the two kinds of partial would sum to a silently wrong count.
// Version 7 gave a path-plan query partial the same semantics, its label's
// cell of the path4 partial, where a version-6 one holds the paths whose
// middle edge lies in the range.
const ProtoVersion = 7

// Worker endpoint paths, mounted next to (not replacing) the public /v1
// API.
const (
	PathCompute = "/shard/v1/compute"
	PathInfo    = "/shard/v1/info"
)

// SubRequest is one shard's slice of a query: the coordinator's normalized
// request plus the work range it owns. Lo/Hi are half-open and
// kind-relative — incidence positions for count, star4 and center-plan
// queries, edge IDs for path4 and path-plan queries, sample indices
// for sig. A sampled request (EpsilonSet, path4 or a path-plan query)
// ranges over the sampling plan's stratum indices instead: every end
// rebuilds the identical plan from the knobs on the wire (docs/APPROX.md).
//
// Nodes/Edges carry the coordinator's view of the dataset shape; a worker
// whose resident graph disagrees answers 409 rather than silently
// contributing partials from a different graph.
type SubRequest struct {
	Proto int `json:"proto"`
	server.Request

	// Shard and Shards locate this slice in the scatter plan; the worker
	// echoes Shard back so the gather can key partials idempotently.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	Lo     int `json:"lo"`
	Hi     int `json:"hi"`

	// Nodes and Edges are the coordinator's graph shape (consistency check).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

// Partial is one shard's partial answer. Exactly one payload is set.
//
// The summing kinds — count, star4, path4 and query — carry Cells, the
// range's raw counters as exact integers, so JSON round-trips them
// bit-identically and partials over disjoint ranges add up cell by cell
// (Gather.Sum). The width is fixed per kind (cellWidth): 56 for count, the
// FAST counters in motif.Counts.Cells order (8 pair, 24 star, 24 tri cells;
// raw, not a matrix: ToMatrix halves the pair cells, so only the summed
// counters convert exactly); 8 for star4 and 48 for path4, their counters'
// cells; 1 for query, the spec count.
//
// Sig carries the raw per-sample count matrices (sample lo up to hi, in
// index order) — the coordinator folds them through the deterministic
// Welford chunk tree itself, because floating-point merge order must not
// depend on the cluster layout.
type Partial struct {
	Proto int         `json:"proto"`
	Kind  server.Kind `json:"kind"`
	Shard int         `json:"shard"`

	Cells []uint64       `json:"cells,omitempty"`
	Sig   []motif.Matrix `json:"sig,omitempty"`
	// Approx is a sampled request's payload in place of Cells: the
	// per-stratum moments for strata [lo, hi), in stratum order. Floats round-trip JSON exactly (shortest-repr
	// encoding), so a remote finish equals a local one bit for bit.
	Approx []approx.Moments `json:"approx,omitempty"`
}

// Info is a worker's /shard/v1/info self-description, used by operators
// and by version-negotiation probes.
type Info struct {
	Proto    int      `json:"proto"`
	Version  string   `json:"version,omitempty"`
	Role     string   `json:"role"`
	Datasets []string `json:"datasets"`
}

// wireError is the JSON error body a worker returns alongside a non-2xx
// status.
type wireError struct {
	Error string `json:"error"`
	// Proto is set on 426 responses: the version the worker speaks.
	Proto int `json:"proto,omitempty"`
}

// validate checks the sub-request's protocol version, shard index and
// range, then normalizes its request exactly as the public endpoints do.
// Range checks against the graph happen once it is resolved.
func (s *SubRequest) validate() error {
	if s.Proto != ProtoVersion {
		return fmt.Errorf("shard: protocol version %d not supported (this end speaks %d)", s.Proto, ProtoVersion)
	}
	if s.Shards < 1 || s.Shard < 0 || s.Shard >= s.Shards {
		return fmt.Errorf("shard: shard %d/%d out of range", s.Shard, s.Shards)
	}
	if s.Lo < 0 || s.Hi < s.Lo {
		return fmt.Errorf("shard: invalid range [%d, %d)", s.Lo, s.Hi)
	}
	if _, err := s.Normalize(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

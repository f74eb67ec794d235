package hare

import (
	"hare/internal/query"
	"hare/internal/server"
)

// MotifSpec is a validated, canonicalized temporal-motif spec: an ordered,
// directed 3-edge pattern over at most four node variables, counted under
// the same δ-window semantics as every counter in this package (edge
// listing order = temporal order, injective node bindings, span ≤ δ).
// Obtain one from ParseSpec or ParseSpecJSON; isomorphic specs (equal up to
// variable renaming) canonicalize to the same value, and Canonical() is the
// serving tier's cache key.
type MotifSpec = query.Spec

// ParseSpec parses the compact text form of a motif spec — three "x->y"
// edge terms in temporal order, separated by ";" or "," (e.g. the temporal
// triangle "a->b; b->c; c->a"). Rejections carry the typed errors of
// internal/query (syntax, edge count, self-loop, node arity, connectivity),
// matched with errors.Is.
func ParseSpec(text string) (*MotifSpec, error) { return query.ParseSpec(text) }

// ParseSpecJSON parses the JSON spec form
// {"edges":[{"src":"a","dst":"b"},...]} with the same validation and
// canonicalization as ParseSpec.
func ParseSpecJSON(data []byte) (*MotifSpec, error) { return query.ParseSpecJSON(data) }

// QueryMotif is the query kind served by /v1/query.
const QueryMotif = server.KindQuery

// CountMotif exactly counts the instances of a compiled motif spec in g
// within δ: the generalized form of CountStar4/CountPath4 that serves any
// 3-edge shape — temporal triangles, cycles, ping-pong multi-edges —
// without per-shape code. The spec compiles to cells of a counter the
// package already has (a 4-node star, 3-node star or 2-node pair spec reads
// the star counter behind CountStar4 and the FAST-Star counters it is built
// from, a triangle the FAST-Tri counter behind Count's triangle motifs, a
// 4-node path its cell of the counter behind CountPath4), and scheduling
// follows the shared knobs: WithWorkers applies, WithDegreeThreshold to the
// node pivots (a path spec's are its triangle correction), and the count is
// bit-identical at any setting.
func CountMotif(g *Graph, spec *MotifSpec, delta Timestamp, opts ...Option) (uint64, error) {
	if g == nil {
		return 0, errNilGraph
	}
	if spec == nil {
		return 0, temporalError("nil spec")
	}
	if delta < 0 {
		return 0, errNegativeDelta(delta)
	}
	return query.Compile(spec).Execute(g, delta, higherOptions(opts)), nil
}

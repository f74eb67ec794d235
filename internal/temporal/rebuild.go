package temporal

import "slices"

// Rebuilder rebuilds a scratch Graph from edge columns, reusing every
// column and index allocation across rebuilds. It exists for workloads that
// derive many same-sized graphs from one base graph — null-model ensembles
// permute a copy of the ts column or rewire a copy of the dst column and
// recount — where a FromEdges call per sample would allocate a full set of
// columns each time. It is also the storage of the one CSR core
// (pbuild.go): every build runs on a Rebuilder, fresh unless the caller
// keeps one.
//
// The graph returned by RebuildColumns aliases the Rebuilder's storage: the
// next call overwrites it. Callers that need the result to outlive the next
// rebuild must copy it. A Rebuilder must not be shared between goroutines;
// use one per worker.
//
// The zero value is ready to use.
type Rebuilder struct {
	g *Graph
	// spare is a second set of edge columns (the graph's previous ones, or
	// the input the time sort permuted from) for the next rebuild to fill.
	spare Builder

	perm, tmp []int32 // time-sort permutation and its scatter buffer
	cnt       []int   // time-sort digit counts; per-(worker, node) incident counts, bases, then cursors
	nodes     []int   // grouping node ranges, balanced by half-edge count

	cw int // the incident stages' worker count (≤ the build's)
}

// RebuildColumns builds the scratch graph on the calling goroutine from edge
// columns, edge i being src[i] → dst[i] at ts[i]; the columns are not
// modified. Semantics are identical to FromEdges: self-loops are counted
// and dropped, edges with negative node IDs are discarded, and the node
// space is [0, max id + 1). The result is bit-identical to FromEdges on the
// same edges.
func (rb *Rebuilder) RebuildColumns(src, dst []NodeID, ts []Timestamp) *Graph {
	b := rb.spare
	m := len(ts)
	b.src, b.dst, b.ts = slices.Grow(b.src[:0], m), slices.Grow(b.dst[:0], m), slices.Grow(b.ts[:0], m)
	for i, t := range ts {
		_ = b.AddEdge(src[i], dst[i], t) // negative IDs are dropped, as in FromEdges
	}
	return rb.fromColumns(b.src, b.dst, b.ts, b.numNodes(), b.selfLoops, 1)
}

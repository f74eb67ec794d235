package temporal

// Rebuilder rebuilds a scratch Graph from an edge slice, reusing every
// column and index allocation across rebuilds. It exists for workloads that
// derive many same-sized graphs from one base graph — null-model ensembles
// permute the ts column or rewire the dst column and recount — where a
// FromEdges call per sample would allocate a full set of columns each time.
// It is also the storage of the one CSR core (pbuild.go): every build runs
// on a Rebuilder, fresh unless the caller keeps one.
//
// The graph returned by Rebuild aliases the Rebuilder's storage: the next
// Rebuild call overwrites it. Callers that need the result to outlive the
// next rebuild must copy it. A Rebuilder must not be shared between
// goroutines; use one per worker.
//
// The zero value is ready to use.
type Rebuilder struct {
	g *Graph
	// spare is a second set of edge columns (the graph's previous ones, or
	// the input the time sort permuted from) for the next Rebuild to fill.
	spare Builder

	perm, tmp []int32 // time-sort permutation and its merge buffer
	bounds    []int   // time-sort segment bounds
	cnt       []int   // per-(worker, node) incident counts, bases, then cursors
	nodes     []int   // grouping node ranges, balanced by half-edge count

	workers int // the build's worker count
	cw      int // the incident stages' worker count (≤ workers)
}

// Rebuild builds the scratch graph from edges on the calling goroutine;
// edges itself is not modified. Semantics are identical to FromEdges:
// self-loops are counted and dropped, edges with negative node IDs are
// discarded, and the node space is [0, max id + 1). The result is
// bit-identical to FromEdges on the same input.
func (rb *Rebuilder) Rebuild(edges []Edge) *Graph {
	b := rb.spare
	b.src, b.dst, b.ts = b.src[:0], b.dst[:0], b.ts[:0]
	for _, e := range edges {
		_ = b.AddEdge(e.From, e.To, e.Time) // negative IDs are dropped, as in FromEdges
	}
	return rb.fromColumns(b.src, b.dst, b.ts, b.numNodes(), b.selfLoops, 1)
}

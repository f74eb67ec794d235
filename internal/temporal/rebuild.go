package temporal

import (
	"cmp"
	"slices"
)

// Rebuilder rebuilds a scratch Graph from an edge slice, reusing every
// column and index allocation across rebuilds. It exists for workloads that
// derive many same-sized graphs from one base graph — null-model ensembles
// permute the ts column or rewire the dst column and recount — where a
// FromEdges call per sample would allocate a full set of columns each time.
// After the time sort a rebuild is three linear passes (incident scatter,
// groupByTransposition, group boundaries), insensitive to degree skew.
//
// The graph returned by Rebuild aliases the Rebuilder's storage: the next
// Rebuild call overwrites it. Callers that need the result to outlive the
// next rebuild must copy it. A Rebuilder must not be shared between
// goroutines; use one per worker.
//
// The zero value is ready to use.
type Rebuilder struct {
	g   *Graph
	cur []int
}

// Rebuild sorts edges by time (stably, in place — the caller's slice is
// reordered) and rebuilds the scratch graph from them. Semantics are
// identical to FromEdges: self-loops are counted and dropped, edges with
// negative node IDs are discarded, and the node space is [0, max id + 1).
// The result is bit-identical to FromEdges on the same input.
func (rb *Rebuilder) Rebuild(edges []Edge) *Graph {
	kept := edges[:0]
	selfLoops := 0
	var maxNode NodeID
	for _, e := range edges {
		if e.From < 0 || e.To < 0 {
			continue // Builder.AddEdge rejects these; FromEdges drops them
		}
		if e.From == e.To {
			selfLoops++
			continue
		}
		if e.From > maxNode {
			maxNode = e.From
		}
		if e.To > maxNode {
			maxNode = e.To
		}
		kept = append(kept, e)
	}
	return rb.build(kept, selfLoops, maxNode)
}

// build is the shared core behind Builder.Build and Rebuild: edges must be
// free of self-loops and negative IDs, with maxNode their largest node ID.
// It reuses rb's storage wherever capacities allow.
func (rb *Rebuilder) build(edges []Edge, selfLoops int, maxNode NodeID) *Graph {
	// Stable, so timestamp ties keep input order; the slices package has no
	// reflection swapper, so repeated rebuilds stay allocation free.
	slices.SortStableFunc(edges, func(a, b Edge) int { return cmp.Compare(a.Time, b.Time) })

	m := len(edges)
	n := 0
	if m > 0 || maxNode > 0 {
		n = int(maxNode) + 1
	}
	if rb.g == nil {
		rb.g = &Graph{}
	}
	g := rb.g
	g.numNodes, g.selfLoops = n, selfLoops
	g.edgesAoS.Store(nil) // invalidate the lazy row-major cache

	g.src = grow(g.src, m)
	g.dst = grow(g.dst, m)
	g.ts = grow(g.ts, m)
	for i, e := range edges {
		g.src[i], g.dst[i], g.ts[i] = e.From, e.To, e.Time
	}

	// CSR incident index: count, prefix-sum, scatter. Scattering in EdgeID
	// order leaves every per-node span EdgeID-sorted — i.e. timestamp-sorted
	// with input-order tie-breaking, inherited from the stable sort above.
	h := 2 * m
	g.incOff = grow(g.incOff, n+1)
	clear(g.incOff)
	for i := 0; i < m; i++ {
		g.incOff[g.src[i]+1]++
		g.incOff[g.dst[i]+1]++
	}
	for u := 0; u < n; u++ {
		g.incOff[u+1] += g.incOff[u]
	}
	g.incID = grow(g.incID, h)
	g.incTime = grow(g.incTime, h)
	g.incOther = grow(g.incOther, h)
	g.incOut = grow(g.incOut, h)
	rb.cur = grow(rb.cur, n)
	cur := rb.cur
	copy(cur, g.incOff[:n])
	for i := 0; i < m; i++ {
		id := EdgeID(i)
		u, v, t := g.src[i], g.dst[i], g.ts[i]
		p := cur[u]
		cur[u]++
		g.incID[p], g.incTime[p], g.incOther[p], g.incOut[p] = id, t, v, true
		p = cur[v]
		cur[v]++
		g.incID[p], g.incTime[p], g.incOther[p], g.incOut[p] = id, t, u, false
	}

	// Grouped per-pair index: transpose the incident index into the grp
	// columns, then record group boundaries as (neighbor key, offset) pairs.
	g.grpID = grow(g.grpID, h)
	g.grpTime = grow(g.grpTime, h)
	g.grpOther = grow(g.grpOther, h)
	g.grpOut = grow(g.grpOut, h)
	g.groupByTransposition(cur, 0, n)
	g.nbrOff = grow(g.nbrOff, n+1)
	g.nbrKey = g.nbrKey[:0]
	g.grpOff = g.grpOff[:0]
	for u := 0; u < n; u++ {
		g.nbrOff[u] = len(g.nbrKey)
		lo, hi := g.incOff[u], g.incOff[u+1]
		for j := lo; j < hi; j++ {
			if j == lo || g.grpOther[j] != g.grpOther[j-1] {
				g.nbrKey = append(g.nbrKey, g.grpOther[j])
				g.grpOff = append(g.grpOff, j)
			}
		}
	}
	g.nbrOff[n] = len(g.nbrKey)
	g.grpOff = append(g.grpOff, h)
	return g
}

// groupByTransposition fills the grp columns of nodes [lo, hi) from the
// incident index: the one routine behind every builder's grouped per-pair
// index. It is a sparse-matrix transposition (Gustavson 1978): visiting
// nodes v in ascending order and S_v in EdgeID order, each half-edge
// (v, other=u) is appended at u's cursor as (u, other=v), direction flipped.
// u's span so fills grouped by neighbor ascending and EdgeID-sorted inside
// each group, in O(h) with no comparison, whatever the degree skew. A call
// writes only cur[lo:hi] (scratch) and the spans of [lo, hi), so calls on
// disjoint ranges may run concurrently, with a scheduling-independent result.
func (g *Graph) groupByTransposition(cur []int, lo, hi int) {
	copy(cur[lo:hi], g.incOff[lo:hi])
	for v := 0; v < g.numNodes; v++ {
		for j := g.incOff[v]; j < g.incOff[v+1]; j++ {
			u := int(g.incOther[j])
			if u < lo || u >= hi {
				continue
			}
			p := cur[u]
			cur[u]++
			g.grpID[p], g.grpTime[p], g.grpOther[p], g.grpOut[p] = g.incID[j], g.incTime[j], NodeID(v), !g.incOut[j]
		}
	}
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

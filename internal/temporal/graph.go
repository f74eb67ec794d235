package temporal

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is an immutable directed temporal multigraph in a columnar
// (struct-of-arrays) CSR layout.
//
// Edges are stored as three parallel columns src[]/dst[]/ts[] sorted by
// (Time, insertion order); the index of an edge in that order is its EdgeID.
// Two derived indexes cover the access patterns of the counting algorithms:
//
//   - a CSR incident index: for every node u the half-edges of S_u — u's
//     incident edges in EdgeID (chronological, input-order tie-broken) order —
//     live in one contiguous span of four parallel columns, addressed by
//     incOff[u] : incOff[u+1];
//   - a grouped per-pair index: the same half-edges re-sorted stably by
//     (owner, neighbor), so E(v,w) — the multi-edges between two nodes,
//     EdgeID-sorted — is one contiguous span located by binary search over
//     v's sorted distinct-neighbor keys.
//
// Hot loops iterate the column slices directly via the Seq views returned by
// Seq and Between; no per-node pointers or maps are touched after Build.
//
// A Graph is safe for concurrent readers.
type Graph struct {
	src []NodeID    // src[id] = source node of edge id
	dst []NodeID    // dst[id] = destination node
	ts  []Timestamp // ts[id] = timestamp, non-decreasing in id

	// CSR incident index: columns of S_u spans.
	incOff   []int // n+1 offsets into the inc columns
	incID    []EdgeID
	incTime  []Timestamp
	incOther []NodeID
	incOut   []bool

	// Grouped per-pair index: the incident half-edges of each node re-sorted
	// stably by neighbor. Group i (a (node, neighbor) pair) spans
	// grp*[grpOff[i]:grpOff[i+1]]; node u owns groups nbrOff[u]:nbrOff[u+1]
	// whose neighbor keys nbrKey are ascending, enabling binary search.
	nbrOff   []int // n+1 offsets into nbrKey / grpOff
	nbrKey   []NodeID
	grpOff   []int // len(nbrKey)+1 offsets into the grp columns
	grpID    []EdgeID
	grpTime  []Timestamp
	grpOther []NodeID
	grpOut   []bool

	numNodes  int
	selfLoops int // self-loops dropped at build time

	// Lazily materialised row-major copy for cold paths. An atomic pointer
	// rather than a sync.Once so a Rebuilder can reset it between rebuilds;
	// concurrent first readers may race to build it, but they build identical
	// slices, so whichever store wins is correct.
	edgesAoS atomic.Pointer[[]Edge]
	// Lazily derived edge positions (EdgePositions), cached and reset the
	// same way; never written to a snapshot.
	edgePos atomic.Pointer[[][2]int32]
}

// NumNodes returns the number of nodes (the node ID space is [0, NumNodes)).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of temporal edges (excluding dropped
// self-loops).
func (g *Graph) NumEdges() int { return len(g.ts) }

// SelfLoopsDropped reports how many self-loop edges were discarded when the
// graph was built. δ-temporal motifs never contain self-loops.
func (g *Graph) SelfLoopsDropped() int { return g.selfLoops }

// Src returns the source-node column, indexed by EdgeID. The caller must not
// modify it.
func (g *Graph) Src() []NodeID { return g.src }

// Dst returns the destination-node column, indexed by EdgeID. The caller
// must not modify it.
func (g *Graph) Dst() []NodeID { return g.dst }

// Times returns the timestamp column, indexed by EdgeID and non-decreasing.
// The caller must not modify it.
func (g *Graph) Times() []Timestamp { return g.ts }

// Edges returns the chronologically sorted edge list as a row-major slice.
// The columnar storage is authoritative; the slice is materialised lazily on
// first call and cached (cold-path convenience — hot paths should read the
// Src/Dst/Times columns). The caller must not modify it.
func (g *Graph) Edges() []Edge {
	if p := g.edgesAoS.Load(); p != nil {
		return *p
	}
	var aos []Edge
	if len(g.ts) > 0 {
		aos = make([]Edge, len(g.ts))
		for i := range aos {
			aos[i] = Edge{From: g.src[i], To: g.dst[i], Time: g.ts[i]}
		}
	}
	g.edgesAoS.Store(&aos)
	return aos
}

// EdgePositions returns, for every edge e, its offsets in the incident
// sequences of its endpoints: S_src[e] holds e at pos[e][0] and S_dst[e] at
// pos[e][1]. It is derived in one pass over the incident index on first
// call and cached on the graph (8 bytes per edge); concurrent first callers
// may each build it, identically. It is a function rather than a method so
// the index stays internal to the module. The caller must not modify the
// result.
func EdgePositions(g *Graph) [][2]int32 {
	if p := g.edgePos.Load(); p != nil {
		return *p
	}
	pos := make([][2]int32, len(g.ts))
	for u := 0; u < g.numNodes; u++ {
		base := g.incOff[u]
		for j := base; j < g.incOff[u+1]; j++ {
			side := 1
			if g.incOut[j] {
				side = 0
			}
			pos[g.incID[j]][side] = int32(j - base)
		}
	}
	g.edgePos.Store(&pos)
	return pos
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	return Edge{From: g.src[id], To: g.dst[id], Time: g.ts[id]}
}

// Seq returns S_u: node u's incident edges in chronological (EdgeID) order,
// as a columnar view. Out-of-range nodes yield an empty view. The caller
// must not modify the underlying columns.
func (g *Graph) Seq(u NodeID) Seq {
	if u < 0 || int(u) >= g.numNodes {
		return Seq{}
	}
	lo, hi := g.incOff[u], g.incOff[u+1]
	return Seq{
		ID:    g.incID[lo:hi],
		Time:  g.incTime[lo:hi],
		Other: g.incOther[lo:hi],
		Out:   g.incOut[lo:hi],
	}
}

// Degree returns the temporal degree of u, i.e. len(S_u); a multi-edge
// contributes once per occurrence. Out-of-range nodes have degree 0.
func (g *Graph) Degree(u NodeID) int {
	if u < 0 || int(u) >= g.numNodes {
		return 0
	}
	return g.incOff[u+1] - g.incOff[u]
}

// NumIncidences returns the length of the CSR incident index, Σ_u Degree(u)
// = 2·NumEdges: S_0, S_1, … laid end to end, so position p of the index is
// one (center, edge) pair. It is the range domain the node-pivot counters
// split, because a position costs about the same wherever it falls while a
// node ID does not.
func (g *Graph) NumIncidences() int { return len(g.incID) }

// Incidence locates position p of the incident index: the node u whose
// sequence S_u holds it, and its offset in S_u. Nodes without edges hold no
// position. p = NumIncidences() yields (NumNodes(), 0), the end of the last
// sequence.
func (g *Graph) Incidence(p int) (u NodeID, off int) {
	i := sort.Search(g.numNodes, func(i int) bool { return g.incOff[i+1] > p })
	if i == g.numNodes {
		return NodeID(i), p - len(g.incID)
	}
	return NodeID(i), p - g.incOff[i]
}

// Between returns E(v,w): every edge between v and w in either direction,
// sorted by EdgeID, with Out recorded relative to v (Out == true means
// v -> w). Returns an empty view when no edge exists.
func (g *Graph) Between(v, w NodeID) Seq {
	if v < 0 || int(v) >= g.numNodes {
		return Seq{}
	}
	lo, hi := g.nbrOff[v], g.nbrOff[v+1]
	keys := g.nbrKey[lo:hi]
	i := sort.Search(len(keys), func(k int) bool { return keys[k] >= w })
	if i == len(keys) || keys[i] != w {
		return Seq{}
	}
	a, b := g.grpOff[lo+i], g.grpOff[lo+i+1]
	return Seq{
		ID:    g.grpID[a:b],
		Time:  g.grpTime[a:b],
		Other: g.grpOther[a:b],
		Out:   g.grpOut[a:b],
	}
}

// Neighbors returns u's distinct static neighbors in ascending order. The
// caller must not modify the result.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if u < 0 || int(u) >= g.numNodes {
		return nil
	}
	return g.nbrKey[g.nbrOff[u]:g.nbrOff[u+1]]
}

// NeighborCount returns the number of distinct static neighbors of u.
func (g *Graph) NeighborCount(u NodeID) int {
	if u < 0 || int(u) >= g.numNodes {
		return 0
	}
	return g.nbrOff[u+1] - g.nbrOff[u]
}

// TimeSpan returns the minimum and maximum timestamps. ok is false for an
// empty graph.
func (g *Graph) TimeSpan() (min, max Timestamp, ok bool) {
	if len(g.ts) == 0 {
		return 0, 0, false
	}
	return g.ts[0], g.ts[len(g.ts)-1], true
}

// Builder accumulates edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	src, dst  []NodeID // kept edges in input order, as columns
	ts        []Timestamp
	maxNode   NodeID
	selfLoops int
}

// NewBuilder returns a Builder with capacity for n edges.
func NewBuilder(n int) *Builder {
	return &Builder{src: make([]NodeID, 0, n), dst: make([]NodeID, 0, n), ts: make([]Timestamp, 0, n)}
}

// AddEdge records the directed temporal edge u -> v at time t. Self-loops
// (u == v) are counted and dropped. Negative node IDs are rejected.
func (b *Builder) AddEdge(u, v NodeID, t Timestamp) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("temporal: negative node id (%d,%d)", u, v)
	}
	if u == v {
		b.selfLoops++
		return nil
	}
	if u > b.maxNode {
		b.maxNode = u
	}
	if v > b.maxNode {
		b.maxNode = v
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	b.ts = append(b.ts, t)
	return nil
}

// Len returns the number of edges added so far (self-loops excluded).
func (b *Builder) Len() int { return len(b.ts) }

// numNodes is the node-space size of the graph b builds.
func (b *Builder) numNodes() int {
	if len(b.ts) == 0 {
		return 0
	}
	return int(b.maxNode) + 1
}

// Build finalises the graph: stable-sorts the edges by time (assigning
// EdgeIDs) into the src/dst/ts columns, and builds the CSR incident and
// grouped per-pair indexes, on the calling goroutine. The Builder must not
// be reused afterwards.
func (b *Builder) Build() *Graph {
	return buildColumns(b.src, b.dst, b.ts, b.numNodes(), b.selfLoops, 1)
}

// FromEdges builds a Graph directly from an edge slice. The input slice is
// copied. Self-loops are dropped.
func FromEdges(edges []Edge) *Graph {
	b := NewBuilder(len(edges))
	for _, e := range edges {
		_ = b.AddEdge(e.From, e.To, e.Time) // AddEdge only fails on negative IDs
	}
	return b.Build()
}

// Validate performs internal-consistency checks (intended for tests and the
// CLI's --check flag). It returns the first violation found.
func (g *Graph) Validate() error {
	m := len(g.ts)
	if len(g.src) != m || len(g.dst) != m {
		return fmt.Errorf("temporal: ragged edge columns (%d/%d/%d)", len(g.src), len(g.dst), m)
	}
	for i := 1; i < m; i++ {
		if g.ts[i] < g.ts[i-1] {
			return fmt.Errorf("temporal: edges out of order at id %d", i)
		}
	}
	for i := 0; i < m; i++ {
		// The Builder guarantees endpoint range, but a Graph decoded from
		// an untrusted snapshot does not: counting kernels index per-node
		// scratch by these IDs, so out-of-range endpoints must be caught
		// here, not by a downstream panic.
		if g.src[i] < 0 || int(g.src[i]) >= g.numNodes || g.dst[i] < 0 || int(g.dst[i]) >= g.numNodes {
			return fmt.Errorf("temporal: edge %d endpoints (%d,%d) out of range [0,%d)", i, g.src[i], g.dst[i], g.numNodes)
		}
	}
	h := 2 * m
	if len(g.incID) != h || len(g.incTime) != h || len(g.incOther) != h || len(g.incOut) != h {
		return fmt.Errorf("temporal: ragged incident columns for %d edges", m)
	}
	if len(g.incOff) != g.numNodes+1 || g.incOff[0] != 0 || g.incOff[g.numNodes] != h {
		return fmt.Errorf("temporal: malformed incident offsets")
	}
	for u := 0; u < g.numNodes; u++ {
		lo, hi := g.incOff[u], g.incOff[u+1]
		if lo > hi || hi > h {
			// hi is bounded before it is used to index: the end anchor
			// above only constrains the last offset, so an intermediate
			// value beyond h would otherwise walk j out of the columns.
			return fmt.Errorf("temporal: incident offsets malformed at node %d", u)
		}
		for j := lo; j < hi; j++ {
			if j > lo && g.incID[j] <= g.incID[j-1] {
				return fmt.Errorf("temporal: S_%d out of EdgeID order at %d", u, j-lo)
			}
			id := g.incID[j]
			if id < 0 || int(id) >= m {
				return fmt.Errorf("temporal: S_%d references edge %d of %d", u, id, m)
			}
			if g.incTime[j] != g.ts[id] {
				return fmt.Errorf("temporal: S_%d[%d] timestamp mismatch", u, j-lo)
			}
			switch {
			case g.incOut[j] && (g.src[id] != NodeID(u) || g.dst[id] != g.incOther[j]):
				return fmt.Errorf("temporal: S_%d[%d] inconsistent outward half-edge", u, j-lo)
			case !g.incOut[j] && (g.dst[id] != NodeID(u) || g.src[id] != g.incOther[j]):
				return fmt.Errorf("temporal: S_%d[%d] inconsistent inward half-edge", u, j-lo)
			}
		}
	}
	if len(g.nbrOff) != g.numNodes+1 || len(g.grpOff) != len(g.nbrKey)+1 {
		return fmt.Errorf("temporal: malformed neighbor index offsets")
	}
	if g.nbrOff[0] != 0 || g.nbrOff[g.numNodes] != len(g.nbrKey) {
		// Anchoring both ends (with the per-node lo <= hi checks below)
		// keeps every nbrOff value inside [0, len(nbrKey)] — required
		// before nbrKey/grpOff are indexed, e.g. on untrusted snapshots.
		return fmt.Errorf("temporal: neighbor offsets do not span the key column")
	}
	if len(g.grpID) != h || g.grpOff[len(g.nbrKey)] != h {
		return fmt.Errorf("temporal: grouped columns do not cover the half-edges")
	}
	for u := 0; u < g.numNodes; u++ {
		lo, hi := g.nbrOff[u], g.nbrOff[u+1]
		if lo > hi || hi > len(g.nbrKey) {
			return fmt.Errorf("temporal: neighbor offsets malformed at node %d", u)
		}
		if lo < hi && g.grpOff[lo] != g.incOff[u] {
			return fmt.Errorf("temporal: node %d groups do not start at its incident span", u)
		}
		if hi > lo && g.grpOff[hi] != g.incOff[u+1] {
			return fmt.Errorf("temporal: node %d groups do not end at its incident span", u)
		}
		for i := lo; i < hi; i++ {
			if i > lo && g.nbrKey[i] <= g.nbrKey[i-1] {
				return fmt.Errorf("temporal: neighbor keys of node %d out of order", u)
			}
			a, b := g.grpOff[i], g.grpOff[i+1]
			if a >= b || b > h {
				// b > h guards the j indexing below, as for incOff above.
				return fmt.Errorf("temporal: malformed group for nodes (%d,%d)", u, g.nbrKey[i])
			}
			for j := a; j < b; j++ {
				if g.grpOther[j] != g.nbrKey[i] {
					return fmt.Errorf("temporal: E(%d,%d) contains edge to %d", u, g.nbrKey[i], g.grpOther[j])
				}
				if j > a && g.grpID[j] <= g.grpID[j-1] {
					return fmt.Errorf("temporal: E(%d,%d) out of order", u, g.nbrKey[i])
				}
				id := g.grpID[j]
				if id < 0 || int(id) >= m {
					return fmt.Errorf("temporal: E(%d,%d) references edge %d of %d", u, g.nbrKey[i], id, m)
				}
				if g.grpTime[j] != g.ts[id] {
					return fmt.Errorf("temporal: E(%d,%d) timestamp mismatch", u, g.nbrKey[i])
				}
				switch {
				case g.grpOut[j] && (g.src[id] != NodeID(u) || g.dst[id] != g.nbrKey[i]):
					return fmt.Errorf("temporal: E(%d,%d) inconsistent outward half-edge", u, g.nbrKey[i])
				case !g.grpOut[j] && (g.dst[id] != NodeID(u) || g.src[id] != g.nbrKey[i]):
					return fmt.Errorf("temporal: E(%d,%d) inconsistent inward half-edge", u, g.nbrKey[i])
				}
			}
		}
	}
	return nil
}

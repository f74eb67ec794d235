package temporal

import (
	"cmp"
	"math"
	"slices"
)

// Extend returns the graph of base's edges followed by tail, bit-identical
// to FromEdges(base's input edges ++ tail): same EdgeIDs, same index
// layout, self-loops counted and dropped. A nil base is the empty graph.
// base is not modified and the result shares no storage with it.
//
// It is a delta merge for append-only feeds. When
//
//   - tail is sorted by Time and starts no earlier than base's last edge,
//   - tail holds no negative node ID, and
//   - tail has no more edges than base,
//
// every tail edge takes the next EdgeID, so its two half-edges land at the
// end of their owners' S_u spans and at the end of their (owner, neighbor)
// groups. The runs of old half-edges between touched nodes and groups are
// block-copied with their offsets shifted by a running count: O(E)
// sequential copying plus O(len(tail)·log len(tail)), with no sort or
// scatter over base's edges. When a condition does not hold — or base's
// node space ends in an isolated node, which FromEdges would trim — Extend
// rebuilds from all the edges instead; the result is the same either way.
func Extend(base *Graph, tail []Edge) *Graph {
	if base == nil {
		return FromEdges(tail)
	}
	n, k, loops, ok := tailFits(base, tail)
	if !ok {
		return rebuildWith(base, tail)
	}
	m0 := len(base.ts)
	m := m0 + k
	g := &Graph{numNodes: n, selfLoops: base.selfLoops + loops}
	g.src = make([]NodeID, m)
	copy(g.src, base.src)
	g.dst = make([]NodeID, m)
	copy(g.dst, base.dst)
	g.ts = make([]Timestamp, m)
	copy(g.ts, base.ts)
	hs := make([]tailHalf, 0, 2*k)
	id := EdgeID(m0)
	for _, e := range tail {
		if e.From == e.To {
			continue
		}
		g.src[id], g.dst[id], g.ts[id] = e.From, e.To, e.Time
		hs = append(hs,
			tailHalf{e.From, HalfEdge{ID: id, Time: e.Time, Other: e.To, Out: true}},
			tailHalf{e.To, HalfEdge{ID: id, Time: e.Time, Other: e.From, Out: false}})
		id++
	}
	// An owner sees an EdgeID once, so both keys are total orders and the
	// unstable sort is deterministic.
	slices.SortFunc(hs, func(a, b tailHalf) int {
		if c := cmp.Compare(a.owner, b.owner); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	g.extendIncident(base, hs)
	slices.SortFunc(hs, func(a, b tailHalf) int {
		if c := cmp.Compare(a.owner, b.owner); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Other, b.Other); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	g.extendGroups(base, hs)
	return g
}

// tailFits reports whether tail meets Extend's merge conditions on base
// and, when it does, the merged graph's node count and tail's kept-edge and
// self-loop counts.
func tailFits(base *Graph, tail []Edge) (n, k, loops int, ok bool) {
	m0, n := len(base.ts), base.numNodes
	if n > 0 && base.incOff[n] == base.incOff[n-1] {
		return 0, 0, 0, false
	}
	last := Timestamp(math.MinInt64)
	if m0 > 0 {
		last = base.ts[m0-1]
	}
	for _, e := range tail {
		if e.From < 0 || e.To < 0 || e.Time < last {
			return 0, 0, 0, false
		}
		last = e.Time
		if e.From == e.To {
			loops++
			continue
		}
		n = max(n, int(e.From)+1, int(e.To)+1)
		k++
	}
	return n, k, loops, k <= m0
}

// rebuildWith is Extend's fallback: a full build over base's edges and tail.
func rebuildWith(base *Graph, tail []Edge) *Graph {
	b := NewBuilder(len(base.ts) + len(tail))
	for i := range base.ts {
		_ = b.AddEdge(base.src[i], base.dst[i], base.ts[i]) // columns of a built graph
	}
	b.selfLoops = base.selfLoops
	for _, e := range tail {
		_ = b.AddEdge(e.From, e.To, e.Time) // negative IDs are dropped, as in FromEdges
	}
	return b.Build()
}

// tailHalf is a tail edge seen from one endpoint.
type tailHalf struct {
	owner NodeID
	HalfEdge
}

// halfCols is one set of parallel half-edge columns (inc* or grp*).
type halfCols struct {
	id    []EdgeID
	time  []Timestamp
	other []NodeID
	out   []bool
}

func makeHalfCols(n int) halfCols {
	return halfCols{make([]EdgeID, n), make([]Timestamp, n), make([]NodeID, n), make([]bool, n)}
}

// copyRun copies src[lo:hi] to c[at:].
func (c halfCols) copyRun(at int, src halfCols, lo, hi int) {
	copy(c.id[at:], src.id[lo:hi])
	copy(c.time[at:], src.time[lo:hi])
	copy(c.other[at:], src.other[lo:hi])
	copy(c.out[at:], src.out[lo:hi])
}

// put stores hs at c[at:].
func (c halfCols) put(at int, hs []tailHalf) {
	for i, h := range hs {
		c.id[at+i], c.time[at+i], c.other[at+i], c.out[at+i] = h.ID, h.Time, h.Other, h.Out
	}
}

// extendIncident builds g's CSR incident index from base's plus the new
// half-edges hs, sorted by (owner, EdgeID).
func (g *Graph) extendIncident(base *Graph, hs []tailHalf) {
	n0, n, h0 := base.numNodes, g.numNodes, len(base.incID)
	oldOff := func(u int) int { return base.incOff[min(u, n0)] } // nodes new in g own nothing in base
	old := halfCols{base.incID, base.incTime, base.incOther, base.incOut}
	cols := makeHalfCols(h0 + len(hs))
	g.incOff = make([]int, n+1)
	u, copied := 0, 0 // next node without an offset; old half-edges copied so far
	for a := 0; a < len(hs); {
		q := int(hs[a].owner)
		b := a + 1
		for b < len(hs) && int(hs[b].owner) == q {
			b++
		}
		// a new half-edges precede q's span, so it shifts by a.
		for ; u <= q; u++ {
			g.incOff[u] = oldOff(u) + a
		}
		end := oldOff(q + 1)
		cols.copyRun(copied+a, old, copied, end)
		cols.put(end+a, hs[a:b])
		copied, a = end, b
	}
	for ; u <= n; u++ {
		g.incOff[u] = oldOff(u) + len(hs)
	}
	cols.copyRun(copied+len(hs), old, copied, h0)
	g.incID, g.incTime, g.incOther, g.incOut = cols.id, cols.time, cols.other, cols.out
}

// extendGroups builds g's grouped per-pair index from base's plus the new
// half-edges hs, sorted by (owner, neighbor, EdgeID). Each (owner,
// neighbor) run of hs either extends the old group with that key or opens
// a new group where the key sorts among the owner's old ones.
func (g *Graph) extendGroups(base *Graph, hs []tailHalf) {
	n0, n, g0, h0 := base.numNodes, g.numNodes, len(base.nbrKey), len(base.grpID)
	oldOff := func(u int) int { return base.nbrOff[min(u, n0)] }
	old := halfCols{base.grpID, base.grpTime, base.grpOther, base.grpOut}
	cols := makeHalfCols(h0 + len(hs))
	g.nbrOff = make([]int, n+1)
	key := make([]NodeID, g0+len(hs)) // at most one new group per new half-edge
	off := make([]int, g0+len(hs)+1)
	var (
		u      int // next node without an offset
		groups int // old groups copied so far
		halves int // old half-edges copied so far
		opened int // new groups so far
	)
	// copyGroups copies the old groups [groups, upTo) and their half-edges,
	// shifted past the new groups and the added new half-edges before them.
	copyGroups := func(upTo, added int) {
		copy(key[groups+opened:], base.nbrKey[groups:upTo])
		for i := groups; i < upTo; i++ {
			off[i+opened] = base.grpOff[i] + added
		}
		end := base.grpOff[upTo]
		cols.copyRun(halves+added, old, halves, end)
		groups, halves = upTo, end
	}
	for a := 0; a < len(hs); {
		q, w := int(hs[a].owner), hs[a].Other
		b := a + 1
		for b < len(hs) && int(hs[b].owner) == q && hs[b].Other == w {
			b++
		}
		for ; u <= q; u++ {
			g.nbrOff[u] = oldOff(u) + opened
		}
		lo := oldOff(q)
		pos, found := slices.BinarySearch(base.nbrKey[lo:oldOff(q+1)], w)
		if found {
			copyGroups(lo+pos+1, a)
		} else {
			copyGroups(lo+pos, a)
			key[groups+opened], off[groups+opened] = w, halves+a
			opened++
		}
		cols.put(halves+a, hs[a:b])
		a = b
	}
	for ; u <= n; u++ {
		g.nbrOff[u] = oldOff(u) + opened
	}
	copyGroups(g0, len(hs))
	off[g0+opened] = h0 + len(hs)
	g.nbrKey, g.grpOff = key[:g0+opened], off[:g0+opened+1]
	g.grpID, g.grpTime, g.grpOther, g.grpOut = cols.id, cols.time, cols.other, cols.out
}

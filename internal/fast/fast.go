// Package fast implements the paper's core contribution: the FAST-Star and
// FAST-Tri exact counting algorithms (Gao et al., ICDE 2022, Algorithms 1
// and 2).
//
// Both algorithms treat every node of the temporal graph as a center node u
// and scan u's chronologically ordered edge sequence S_u. FAST-Star counts
// all 24 star and 4 pair motifs with one quadruple and one triple counter;
// FAST-Tri counts all 8 triangle motifs with a second quadruple counter.
// Both run in time linear in |E| for bounded in-window degree d^δ
// (O(d^δ·|E|) and O((d^δ)²·|E|) respectively).
//
// Beside Algorithm 1 the package has the star/pair sweep
// (SweepStarPairRange), which finds the same star and pair cells in O(|E|)
// whatever the window, at most one push and one pop per edge: an edge with
// fewer than two edges within δ before it adds to no cell, so once the
// window empties the sweep drops it at once and reads only timestamps up to
// the next edge that can add. It is what the engine, package higher and the null-model
// ensembles run. Count, CountStarPair and
// CountStarPairRange stay Algorithm 1 verbatim — Table III's FAST columns,
// the sequential reference the parallel paths are checked against, and the
// sweep's oracle — and CountAfter/CountBefore, its inner loop and that
// loop's mirror, are the stream tier's per-edge kernels.
//
// The hot loops iterate the graph's columnar CSR layout (temporal.Seq views)
// directly, and the per-worker Scratch replaces Algorithm 1's hash maps with
// dense epoch-versioned arrays: resetting between first-edge iterations is a
// single epoch bump, and a warmed-up Scratch makes the per-center path
// allocation free.
//
// Per-center counting is side-effect free with respect to other centers,
// which is what makes the HARE framework (package engine) embarrassingly
// parallel.
//
// Deviation from the paper: Algorithm 2 finds every triangle at each of its
// three vertices (HARE recounts and divides by three; the sequential variant
// removes finished centers). Here every triangle belongs to exactly one
// owner, its lowest vertex in (temporal degree, ID) order
// (temporal.Precedes) — the classical degree-ordered orientation of
// triangle listing. Ownership is a pure function of the immutable graph, so
// it is as dependency free as recounting, and it hands each triangle to the
// vertex that finds it most cheaply. CountTriRange in owner mode tests the
// order at every first and second edge; CountTriForwardRange, what the
// engine runs, walks the graph's stored forward incidences
// (temporal.ForwardIncidences), the half-edges whose far end follows the
// center, so a hub never visits the first edges it does not own. Count,
// CountTri, CountTriNode, CountInto and NodeProfile stay Algorithm 2: Table
// III's FAST-Tri column and the reference the forward loop is checked
// against.
package fast

import (
	"slices"
	"sync"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// Scratch holds the reusable per-worker counters of Algorithm 1 (m_in and
// m_out), stored as dense arrays indexed by NodeID with an epoch mark per
// slot: a slot is live only when its mark equals the current epoch, so
// clearing between scans is one epoch increment instead of a map clear.
// Reusing a Scratch across centers keeps the hot loop allocation free once
// the arrays have grown to the graph's node space (Grow preallocates).
// SweepStarPairRange keeps its per-neighbour records in nbrs instead, one per
// neighbour in the window, with the slot index in in[u]. A Scratch must not
// be shared between goroutines.
type Scratch struct {
	in    []uint64
	out   []uint64
	mark  []uint32
	epoch uint32
	nbrs  []nbrWindow
	free  []int32 // released slots of nbrs
}

// NewScratch returns an empty Scratch. It grows on demand; call Grow with
// the graph's node count to preallocate and keep the hot path allocation
// free from the first center.
func NewScratch() *Scratch {
	return &Scratch{epoch: 1}
}

// scratchPool recycles scratches between requests: a scratch is 20 bytes per
// node, and a server that allocated one per worker per request would hand
// the collector megabytes for every count it serves.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch returns a scratch covering node IDs in [0, n) from the
// package's pool; hand it back with PutScratch. A recycled scratch keeps its
// arrays and its epoch, so whatever its last user left behind is stale to the
// next one after the first Reset (every counting routine starts with one).
func GetScratch(n int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.Grow(n)
	return s
}

// PutScratch returns a scratch obtained from GetScratch to the pool. The
// caller must not use it afterwards.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Grow ensures the scratch covers node IDs in [0, n).
func (s *Scratch) Grow(n int) {
	if n <= len(s.mark) {
		return
	}
	if grown := 2 * len(s.mark); n < grown {
		n = grown
	}
	in := make([]uint64, n)
	copy(in, s.in)
	s.in = in
	out := make([]uint64, n)
	copy(out, s.out)
	s.out = out
	mark := make([]uint32, n)
	copy(mark, s.mark)
	s.mark = mark
}

// Reset invalidates every slot in O(1) by advancing the epoch.
func (s *Scratch) Reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: marks from 2^32 scans ago could alias
		clear(s.mark)
		s.epoch = 1
	}
}

// Vals returns the live (m_in, m_out) counters for node u (zero when the
// slot is stale or out of range).
func (s *Scratch) Vals(u temporal.NodeID) (cin, cout uint64) {
	if int(u) < len(s.mark) && s.mark[u] == s.epoch {
		return s.in[u], s.out[u]
	}
	return 0, 0
}

// Bump increments m_out (out == true) or m_in for node u, reviving a stale
// slot first.
func (s *Scratch) Bump(u temporal.NodeID, out bool) {
	if int(u) >= len(s.mark) {
		s.Grow(int(u) + 1)
	}
	if s.mark[u] != s.epoch {
		s.mark[u] = s.epoch
		s.in[u], s.out[u] = 0, 0
	}
	if out {
		s.out[u]++
	} else {
		s.in[u]++
	}
}

// CountStarPairNode runs Algorithm 1 (FAST-Star) for a single center node u,
// accumulating into counts. Every star motif centered at u and every pair
// motif seen from u's side is recorded.
func CountStarPairNode(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp,
	counts *motif.Counts, s *Scratch) {
	s.Grow(g.NumNodes())
	su := g.Seq(u)
	CountStarPairRange(su, delta, counts, s, 0, su.Len())
}

// CountStarPairRange runs the outer loop of Algorithm 1 for first-edge
// indices i in [from, to) of the sequence su. Splitting the range across
// workers is HARE's intra-node parallel mode; the union over a partition of
// [0, su.Len()) equals CountStarPairNode.
func CountStarPairRange(su temporal.Seq, delta temporal.Timestamp,
	counts *motif.Counts, s *Scratch, from, to int) {
	n := su.Len()
	if to > n-2 {
		to = n - 2
	}
	times := su.Time
	for i := from; i < to; i++ {
		if times[i+2]-times[i] > delta {
			continue // fewer than two later edges in the window: no triple
		}
		CountAfter(su.Slice(i+1, n), times[i], su.Other[i], su.Out[i], delta, counts, s)
	}
}

// CountAfter is Algorithm 1's inner loop: it records every star and pair
// triple whose first edge is (t1, o1, out1), a center edge with far end o1,
// leaving the center when out1. win holds the center's later edges in order;
// the scan stops at the first one more than δ after t1. Each window edge is
// a last-edge candidate e3, checked against the middle edges before it in
// s's m_in/m_out before it becomes one itself.
func CountAfter(win temporal.Seq, t1 temporal.Timestamp, o1 temporal.NodeID, out1 bool,
	delta temporal.Timestamp, counts *motif.Counts, s *Scratch) {
	d1 := motif.DirOf(out1)
	s.Reset()
	var nIn, nOut uint64 // #e_in, #e_out: middle-edge candidates so far
	times := win.Time
	others, outs := win.Other[:len(times)], win.Out[:len(times)]
	for j, t3 := range times {
		if t3-t1 > delta {
			break
		}
		o3 := others[j]
		d3 := motif.DirOf(outs[j])
		if o3 == o1 {
			cin, cout := s.Vals(o1)
			counts.Pair[motif.PairIndex(d1, motif.In, d3)] += cin
			counts.Pair[motif.PairIndex(d1, motif.Out, d3)] += cout
			counts.Star[motif.StarIndex(motif.StarII, d1, motif.In, d3)] += nIn - cin
			counts.Star[motif.StarIndex(motif.StarII, d1, motif.Out, d3)] += nOut - cout
		} else {
			cin3, cout3 := s.Vals(o3)
			cin1, cout1 := s.Vals(o1)
			counts.Star[motif.StarIndex(motif.StarI, d1, motif.In, d3)] += cin3
			counts.Star[motif.StarIndex(motif.StarI, d1, motif.Out, d3)] += cout3
			counts.Star[motif.StarIndex(motif.StarIII, d1, motif.In, d3)] += cin1
			counts.Star[motif.StarIndex(motif.StarIII, d1, motif.Out, d3)] += cout1
		}
		if outs[j] {
			s.Bump(o3, true)
			nOut++
		} else {
			s.Bump(o3, false)
			nIn++
		}
	}
}

// CountBefore is CountAfter's time mirror: it records every star and pair
// triple whose last edge is (o3, out3). win holds the center's earlier edges
// in order, already cut to those at most δ before it. Each window edge is a
// middle-edge candidate e2, checked against the first edges before it.
func CountBefore(win temporal.Seq, o3 temporal.NodeID, out3 bool, counts *motif.Counts, s *Scratch) {
	d3 := motif.DirOf(out3)
	s.Reset()
	var nIn, nOut uint64 // first-edge candidates so far
	others := win.Other
	outs := win.Out[:len(others)]
	for i, o2 := range others {
		d2 := motif.DirOf(outs[i])
		if o2 == o3 {
			// e2 pairs with e3: a first edge to o3 makes a 2-node pair,
			// any other is the isolated edge of a Star-I.
			cin, cout := s.Vals(o3)
			counts.Pair[motif.PairIndex(motif.In, d2, d3)] += cin
			counts.Pair[motif.PairIndex(motif.Out, d2, d3)] += cout
			counts.Star[motif.StarIndex(motif.StarI, motif.In, d2, d3)] += nIn - cin
			counts.Star[motif.StarIndex(motif.StarI, motif.Out, d2, d3)] += nOut - cout
		} else {
			// A first edge to o2 pairs with e2 (Star-III), one to o3 with
			// e3 (Star-II).
			cin2, cout2 := s.Vals(o2)
			cin3, cout3 := s.Vals(o3)
			counts.Star[motif.StarIndex(motif.StarIII, motif.In, d2, d3)] += cin2
			counts.Star[motif.StarIndex(motif.StarIII, motif.Out, d2, d3)] += cout2
			counts.Star[motif.StarIndex(motif.StarII, motif.In, d2, d3)] += cin3
			counts.Star[motif.StarIndex(motif.StarII, motif.Out, d2, d3)] += cout3
		}
		if outs[i] {
			s.Bump(o2, true)
			nOut++
		} else {
			s.Bump(o2, false)
			nIn++
		}
	}
}

// CountTriNode runs Algorithm 2 (FAST-Tri) for a single center node u,
// accumulating into tri.
//
// With dedup == true (owner mode) only neighbors that follow u in (temporal
// degree, ID) order (temporal.Precedes) participate. That is a strict total
// order on one graph, so summed over all centers every instance is recorded
// exactly once, from its lowest vertex. With dedup == false every triangle
// containing u is recorded: the per-node view of NodeProfile, three
// isomorphic cells per instance when summed over centers.
func CountTriNode(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp,
	tri *motif.TriCounter, dedup bool) {
	CountTriRange(g, u, delta, tri, dedup, 0, g.Degree(u))
}

// CountTriRange runs the outer loop of Algorithm 2 for first-edge indices i
// in [from, to) of S_u (intra-node parallel mode); the union over a
// partition of [0, g.Degree(u)) equals CountTriNode in either mode.
func CountTriRange(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp,
	tri *motif.TriCounter, dedup bool, from, to int) {
	su := g.Seq(u)
	n := su.Len()
	if to > n-1 {
		to = n - 1
	}
	times, others, outs, ids := su.Time, su.Other, su.Out, su.ID
	grp := g.Grouped()
	for i := from; i < to; i++ {
		oi := others[i]
		if dedup && temporal.Precedes(g, oi, u, n) {
			continue
		}
		ti := times[i]
		for j := i + 1; j < n; j++ {
			if times[j]-ti > delta {
				break
			}
			oj := others[j]
			if oj == oi {
				continue
			}
			if dedup && temporal.Precedes(g, oj, u, n) {
				continue
			}
			if lo, hi := g.PairSpan(oi, oj); lo < hi {
				countThird(&grp, lo, hi, delta, ti, times[j], outs[i], outs[j], ids[i], ids[j], tri)
			}
		}
	}
}

// CountTriForwardRange is owner-mode CountTriRange read from g's forward
// incidences fw (temporal.ForwardIncidences): it finds the same triangles
// and adds the same cells for first-edge indices in [from, to) of S_u. The
// loops visit only the half-edges whose far end follows u, so a hub never
// visits its first edges to lower vertices, nor reads a degree, and a run
// of multi-edges to the first edge's own neighbour is one step. It is
// FAST-Tri as the engine runs it; CountTriRange stays Algorithm 2 as
// published.
func CountTriForwardRange(g *temporal.Graph, fw temporal.Forward, u temporal.NodeID, delta temporal.Timestamp,
	tri *motif.TriCounter, from, to int) {
	pos, next := fw.Of(u)
	a, b := 0, len(pos)
	if b < 2 {
		return
	}
	if from > 0 {
		a, _ = slices.BinarySearch(pos, int32(from))
	}
	if to < g.Degree(u) {
		b, _ = slices.BinarySearch(pos, int32(max(to, 0)))
	}
	su, grp := g.Seq(u), g.Grouped()
	times, others, outs, ids := su.Time, su.Other, su.Out, su.ID
	for x := a; x < b; x++ {
		i := pos[x]
		oi, ti := others[i], times[i]
		// next[x] is the first later entry to another neighbour than oi.
		for y := int(next[x]); y < len(pos); {
			j := pos[y]
			if times[j]-ti > delta {
				break
			}
			oj := others[j]
			if oj == oi {
				y = int(next[y])
				continue
			}
			if lo, hi := g.PairSpan(oi, oj); lo < hi {
				countThird(&grp, lo, hi, delta, ti, times[j], outs[i], outs[j], ids[i], ids[j], tri)
			}
			y++
		}
	}
}

// countThird adds the triangles closed by a first edge (ti, outi, idi) to oi
// and a second edge (tj, outj, idj) to oj of one center: one per third edge
// of E(oi, oj) in the window. E(oi, oj) spans [lo, hi) of the grouped
// columns grp, EdgeID-sorted with directions relative to oi, so the third
// edges before the first edge (Triangle-I), between the two (II) and after
// the second (III) are three consecutive runs, each tallied by direction.
func countThird(grp *temporal.Seq, lo, hi int, delta, ti, tj temporal.Timestamp, outi, outj bool, idi, idj temporal.EdgeID, tri *motif.TriCounter) {
	bTimes, bIDs, bOuts := grp.Time[lo:hi], grp.ID[lo:hi], grp.Out[lo:hi]
	bn := len(bTimes)
	// Only edges with t_k >= t_j − δ can participate (Triangle-I needs
	// t_j − t_k ≤ δ; types II/III start at t_i ≥ t_j − δ). Compared as a
	// difference: t_j − δ overflows for huge δ.
	lo, hi = 0, bn
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tj-bTimes[mid] > delta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k := lo
	var out uint64
	for ; k < bn && bIDs[k] < idi; k++ {
		out += b2u(bOuts[k])
	}
	addThird(tri, motif.TriI, outi, outj, uint64(k-lo), out)
	start, out := k, 0
	for ; k < bn && bIDs[k] < idj; k++ {
		out += b2u(bOuts[k])
	}
	addThird(tri, motif.TriII, outi, outj, uint64(k-start), out)
	start, out = k, 0
	for ; k < bn && bTimes[k]-ti <= delta; k++ { // Triangle-III needs t_k − t_i ≤ δ
		out += b2u(bOuts[k])
	}
	addThird(tri, motif.TriIII, outi, outj, uint64(k-start), out)
}

// addThird adds n triangles of type t, out of them with the third edge
// leaving oi, to their two cells.
func addThird(tri *motif.TriCounter, t motif.TriType, outi, outj bool, n, out uint64) {
	di, dj := motif.DirOf(outi), motif.DirOf(outj)
	tri[motif.TriIndex(t, di, dj, motif.Out)] += out
	tri[motif.TriIndex(t, di, dj, motif.In)] += n - out
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Count runs both FAST algorithms sequentially over all centers, every
// triangle counted once by its owner. This is the single-threaded reference
// entry point ("FAST" in the paper's Table III).
func Count(g *temporal.Graph, delta temporal.Timestamp) *motif.Counts {
	counts := &motif.Counts{}
	s := NewScratch()
	for u := 0; u < g.NumNodes(); u++ {
		CountStarPairNode(g, temporal.NodeID(u), delta, counts, s)
		CountTriNode(g, temporal.NodeID(u), delta, &counts.Tri, true)
	}
	return counts
}

// CountInto counts all 36 motifs sequentially into the caller's counter with
// the caller's scratch, for loops that count many graphs of one size
// (null-model ensembles) and keep both across them. It runs what the engine
// runs per center: stars and pairs by the sweep (SweepStarPairRange), then
// FAST-Tri; its counts equal Count's.
func CountInto(g *temporal.Graph, delta temporal.Timestamp, counts *motif.Counts, s *Scratch) {
	var all [8]uint64 // the 4-node-star tally, which the 36 motifs do not use
	for u := 0; u < g.NumNodes(); u++ {
		su := g.Seq(temporal.NodeID(u))
		SweepStarPairRange(su, delta, counts, &all, s, 0, su.Len())
		CountTriNode(g, temporal.NodeID(u), delta, &counts.Tri, true)
	}
}

// CountStarPair runs only FAST-Star over all centers ("FAST-Pair" in the
// paper reports the pair-motif subset of this run).
func CountStarPair(g *temporal.Graph, delta temporal.Timestamp) *motif.Counts {
	counts := &motif.Counts{}
	s := NewScratch()
	s.Grow(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		CountStarPairNode(g, temporal.NodeID(u), delta, counts, s)
	}
	return counts
}

// CountTri runs only FAST-Tri over all centers, every triangle counted once
// by its owner ("FAST-Tri" in the paper's Table III).
func CountTri(g *temporal.Graph, delta temporal.Timestamp) *motif.TriCounter {
	var tri motif.TriCounter
	for u := 0; u < g.NumNodes(); u++ {
		CountTriNode(g, temporal.NodeID(u), delta, &tri, true)
	}
	return &tri
}

// NodeProfile returns the motif counts in which node u participates as the
// counting center: stars centered at u, pairs seen from u's side, and
// triangles containing u (each triangle once). Useful as a per-node
// structural feature vector (see examples/motiffeatures).
func NodeProfile(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp) motif.Matrix {
	counts := &motif.Counts{}
	CountStarPairNode(g, u, delta, counts, NewScratch())
	CountTriNode(g, u, delta, &counts.Tri, false) // every triangle containing u, once
	// The pair counter here holds u's one-sided view; both complementary
	// cells of a pair label must contribute.
	m := counts.ToMatrix()
	for _, l := range motif.PairLabels() {
		cells, _ := motif.PairCells(l)
		m.Set(l, counts.Pair[cells[0]]+counts.Pair[cells[1]])
	}
	return m
}

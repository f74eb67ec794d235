package fast

import (
	"hare/internal/motif"
	"hare/internal/temporal"
)

// The star/pair sweep is the one-pass window counter of Paranjape, Benson and
// Leskovec ("Motifs in Temporal Networks", WSDM 2017, §5), extended with the
// pair cells: it finds the same star and pair triples as Algorithm 1, grouped
// by last edge instead of first, in O(1) per edge instead of one window
// rescan per first edge.
//
// For last edge j (far end m, class z) the window is the center's edges i < j
// with t_j − t_i ≤ δ, and every ordered pair i < k inside it closes a triple
// with j. Classes are motif.Dir values; [x<<1|y] reads "an edge of class x,
// then one of class y". With b_m the window pairs whose two edges both go to
// m and bTot the same summed over every neighbour:
//
//	Pair[x,y,z]      += b_m[xy]                  all three edges on m
//	Star-I[x,y,z]    += secondTo_m[xy] − b_m[xy]  edges 2 and 3 on m
//	Star-II[x,y,z]   += firstTo_m[xy] − b_m[xy]   edges 1 and 3 on m
//	Star-III[x,y,z]  += bTot[xy] − b_m[xy]        edges 1 and 2 on one n ≠ m
//	all[x,y,z]       += c2[xy]                    every window pair
//
// secondTo_m (window pairs whose later edge goes to m) and firstTo_m (whose
// earlier one does) follow in O(1) from one per-neighbour sum of class prefix
// counts. With pre_c(p) the class-c edges before position p and sumPre_m[xy]
// the sum of pre_y(i) over m's window edges i of class x:
//
//	secondTo_m[xy] = sumPre_m[yx] − cnt1_m[y]·pre_x(start)
//	firstTo_m[xy]  = cnt1_m[x]·pre_y(j) − Σ_i pre_y(i+1)
//	               = cnt1_m[x]·(pre_y(j) − [x = y]) − sumPre_m[xy]
//
// (EX's star sweeper keeps Σ_i pre_y(i+1) as a fourth array, sumPost; it is
// sumPre plus the edge's own class.) Only differences of pre_c appear, so its
// origin is arbitrary: two running counts, at j and at the window start,
// stand in for the prefix arrays.

// nbrWindow is one neighbour's share of the sweep's window.
type nbrWindow struct {
	cnt1   [2]uint64 // its window edges, by class
	b      [4]uint64 // [x<<1|y]: window pairs with both edges to it
	sumPre [4]uint64 // [x<<1|y]: Σ pre_y(i) over its window edges i of class x
}

// window returns neighbour v's record, claiming a zero one when v has no edge
// in the window. The record's slot index lives in in[v] under the epoch mark,
// so the sweep adds no node-indexed column to the scratch; slots are recycled
// through free, so a sweep holds one record per neighbour in the window, not
// one per neighbour it has seen.
func (s *Scratch) window(v temporal.NodeID) *nbrWindow {
	if int(v) >= len(s.mark) {
		s.Grow(int(v) + 1)
	}
	if s.mark[v] == s.epoch {
		return &s.nbrs[s.in[v]]
	}
	var k int32
	if last := len(s.free) - 1; last >= 0 {
		k, s.free = s.free[last], s.free[:last] // zero: see release
	} else {
		k = int32(len(s.nbrs))
		s.nbrs = append(s.nbrs, nbrWindow{})
	}
	s.mark[v], s.in[v] = s.epoch, uint64(k)
	return &s.nbrs[k]
}

// release frees v's slot once its last window edge has left. Every counter of
// the record is then zero: cnt1 and b count window edges and pairs, and each
// pop subtracts from sumPre exactly what its push added.
func (s *Scratch) release(v temporal.NodeID) {
	s.free = append(s.free, int32(s.in[v]))
	s.mark[v] = 0 // the epoch is never 0
}

// starWindow is the sweep's aggregate window state.
type starWindow struct {
	c1       [2]uint64 // window edges, by class
	c2       [4]uint64 // [x<<1|y]: window pairs
	bTot     [4]uint64 // [x<<1|y]: window pairs with both edges to one neighbour
	pre      [2]uint64 // class counts before the next edge to push: pre(j)
	preStart [2]uint64 // class counts before the window start: pre(start)
}

// push admits an edge of class c to neighbour r's window.
func (w *starWindow) push(r *nbrWindow, c int) {
	c &= 1 // a class is 0 or 1; the mask proves the indices below in bounds
	r.b[c] += r.cnt1[0]
	r.b[2|c] += r.cnt1[1]
	w.bTot[c] += r.cnt1[0]
	w.bTot[2|c] += r.cnt1[1]
	w.c2[c] += w.c1[0]
	w.c2[2|c] += w.c1[1]
	r.sumPre[c<<1] += w.pre[0]
	r.sumPre[c<<1|1] += w.pre[1]
	w.pre[c]++
	r.cnt1[c]++
	w.c1[c]++
}

// pop retires the window's oldest edge, of class c, from neighbour r.
func (w *starWindow) pop(r *nbrWindow, c int) {
	c &= 1
	r.cnt1[c]--
	w.c1[c]--
	r.b[c<<1] -= r.cnt1[0]
	r.b[c<<1|1] -= r.cnt1[1]
	w.bTot[c<<1] -= r.cnt1[0]
	w.bTot[c<<1|1] -= r.cnt1[1]
	w.c2[c<<1] -= w.c1[0]
	w.c2[c<<1|1] -= w.c1[1]
	r.sumPre[c<<1] -= w.preStart[0]
	r.sumPre[c<<1|1] -= w.preStart[1]
	w.preStart[c]++
}

// SweepStarPairRange counts the star and pair triples of the center sequence
// su whose last edge index lies in [from, to) into counts, FAST-Star's cells,
// and every ordered triple within δ ending there into all, by direction
// pattern (motif.PairIndex): the tally package higher complements into 4-node
// stars. A slice seeds its window by replaying the edges within δ before
// from, so the slices of any partition of [0, su.Len()) sum to the whole
// sequence's count — which, summed over a center's slices, equals Algorithm
// 1's (CountStarPairRange) cell for cell. The cost is O(to − from + w), w the
// window at from; a warmed-up s makes it allocation free.
func SweepStarPairRange(su temporal.Seq, delta temporal.Timestamp, counts *motif.Counts, all *[8]uint64,
	s *Scratch, from, to int) {
	n := su.Len()
	to = min(to, n)
	if n < 3 || from >= to || delta < 0 {
		return
	}
	times, others, outs := su.Time[:n], su.Other[:n], su.Out[:n]
	s.Reset()
	s.nbrs, s.free = s.nbrs[:0], s.free[:0]
	var w starWindow
	// The cells' terms summed over the last edges of each class, turned into
	// cells once at the end.
	var acc [2]struct{ b, secondTo, firstTo, bTot, c2 [4]uint64 }
	start := from
	for start > 0 && times[from]-times[start-1] <= delta { // a difference: t − δ overflows for huge δ
		start--
	}
	for p := start; p < from; p++ {
		w.push(s.window(others[p]), int(motif.DirOf(outs[p])))
	}
	for j := from; j < to; j++ {
		for times[j]-times[start] > delta {
			o := others[start]
			r := &s.nbrs[s.in[o]]
			w.pop(r, int(motif.DirOf(outs[start])))
			if r.cnt1 == [2]uint64{} {
				s.release(o)
			}
			start++
		}
		r := s.window(others[j])
		z := int(motif.DirOf(outs[j]))
		a := &acc[z]
		for xy := 0; xy < 4; xy++ {
			x, y := xy>>1, xy&1
			firstTo := r.cnt1[x]*w.pre[y] - r.sumPre[xy]
			if x == y {
				firstTo -= r.cnt1[x]
			}
			a.b[xy] += r.b[xy]
			a.secondTo[xy] += r.sumPre[y<<1|x] - r.cnt1[y]*w.preStart[x]
			a.firstTo[xy] += firstTo
			a.bTot[xy] += w.bTot[xy]
			a.c2[xy] += w.c2[xy]
		}
		w.push(r, z)
	}
	for z := range acc {
		a := &acc[z]
		for xy := 0; xy < 4; xy++ {
			cell := xy<<1 | z
			counts.Pair[cell] += a.b[xy]
			counts.Star[int(motif.StarI)<<3|cell] += a.secondTo[xy] - a.b[xy]
			counts.Star[int(motif.StarII)<<3|cell] += a.firstTo[xy] - a.b[xy]
			counts.Star[int(motif.StarIII)<<3|cell] += a.bTot[xy] - a.b[xy]
			all[cell] += a.c2[xy]
		}
	}
}

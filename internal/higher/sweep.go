package higher

import (
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// The pair sweep counts a "leg at each endpoint" shape one pivot at a time:
// a pivot edge m = (b→c, t) with one more edge f at b and one more edge g at
// c, the far ends of f and g off the pivot pair. Where the far ends differ the
// three edges are a 4-node path with m its structural middle; where they
// coincide, a triangle. It is what CountPaths, the stream and the samplers'
// per-pivot units (CountPathMiddle, CountPathCell) count with;
// CountPath4Range, which needs every order of every pivot and no per-pivot
// split, sums the two kinds without a per-neighbour counter, one walk per
// run of a node pair's pivots, and separates them afterwards (allpairs.go).
//
// Following the paper's argument for FAST over EX, instances are counted
// from per-neighbour counters, never enumerated: the δ-windows of S_b and
// S_c are split at the pivot's own position (temporal.EdgePositions, O(1))
// into the legs before and after it, and each of the six temporal role
// orders of (f, m, g) is one two-pointer sweep over two of those four
// halves. As the inner cursor admits a leg it bumps a running per-direction
// total and the per-neighbour m_in/m_out of a fast.Scratch (the paper's
// triple counter); for each outer leg with far end x, m(x) is then the
// number of admitted partners with the same far end and total − m(x) the
// number with a different one. All 48 cells cost O(w_b + w_c) per pivot.

// LegOrder is the temporal order of the three roles f (leg at the pivot's
// source), m (the pivot) and g (leg at its destination); the values index
// pathPerms.
type LegOrder uint8

// The six role orders, earliest role first.
const (
	OrderFMG LegOrder = iota
	OrderFGM
	OrderMFG
	OrderMGF
	OrderGFM
	OrderGMF
	numLegOrders
)

// legOrderOf maps the temporal ranks (0, 1, 2 in some order) of the roles f,
// m and g to their LegOrder.
func legOrderOf(rankF, rankM, rankG int) LegOrder {
	return LegOrder(permIndex(rankF, rankM, rankG))
}

// LegOrders is a set of role orders, bit o standing for LegOrder o.
type LegOrders uint8

// AllLegOrders selects the six sweeps.
const AllLegOrders LegOrders = 1<<numLegOrders - 1

// Which halves of which window an order reads: f comes from S_b and g from
// S_c, each before or after the pivot according to its place in the order.
const (
	srcBefore = 1<<OrderFMG | 1<<OrderFGM | 1<<OrderGFM
	srcAfter  = 1<<OrderMFG | 1<<OrderMGF | 1<<OrderGMF
	dstBefore = 1<<OrderFGM | 1<<OrderGFM | 1<<OrderGMF
	dstAfter  = 1<<OrderFMG | 1<<OrderMFG | 1<<OrderMGF
)

// outerIsF[o] tells which role a sweep walks in its outer loop: the later of
// the two legs where both lie on one side of the pivot (its partners are then
// a growing prefix by EdgeID), the earlier one where the pivot separates them
// (a growing prefix by the sliding bound t_last − t_first ≤ δ).
var outerIsF = [numLegOrders]bool{
	OrderFMG: true, OrderFGM: false, OrderMFG: false,
	OrderMGF: true, OrderGFM: true, OrderGMF: false,
}

// LegPairs tallies (f, g) leg pairs by role order and by the direction of
// each leg relative to its pivot endpoint. Read it with At; the raw cells are
// laid out [order][outer leg out][inner leg out], as the sweeps write them.
type LegPairs [numLegOrders][2][2]uint64

// At returns the tally for an order and the two leg directions: fOut means
// f leaves the pivot's source, gOut that g leaves its destination.
func (p *LegPairs) At(o LegOrder, fOut, gOut bool) uint64 {
	fd, gd := motif.DirOf(fOut), motif.DirOf(gOut)
	if outerIsF[o] {
		return p[o][fd][gd]
	}
	return p[o][gd][fd]
}

// add accumulates another tally.
func (p *LegPairs) add(o *LegPairs) {
	for i := range p {
		for x := range p[i] {
			for y := range p[i][x] {
				p[i][x][y] += o[i][x][y]
			}
		}
	}
}

// windowStart is the lowest lo ≤ pos with every time in times[lo:pos) at
// most δ before t.
func windowStart(times []temporal.Timestamp, pos int, t, delta temporal.Timestamp) int {
	lo := pos
	for lo > 0 && t-times[lo-1] <= delta {
		lo--
	}
	return lo
}

// windowEnd is the highest hi > pos with every time in times[pos+1:hi) at
// most δ after t.
func windowEnd(times []temporal.Timestamp, pos int, t, delta temporal.Timestamp) int {
	hi := pos + 1
	for hi < len(times) && times[hi]-t <= delta {
		hi++
	}
	return hi
}

// CountLegPairs adds pivot edge e's leg pairs, for every role order in
// orders, to diff (f and g end at different nodes: 4-node paths with e the
// structural middle) and to same (one common far end: triangles on e). Legs
// whose far end is the other pivot endpoint are multi-edges of the pivot pair
// and take no part, neither counted nor counted against. s must cover the
// graph's node IDs. Each instance has one pivot in a given role, so tallies
// over any set of pivots sum without correction.
//
// The pivot's positions come from temporal.EdgePositions, derived on the
// graph's first use.
func CountLegPairs(g *temporal.Graph, e temporal.EdgeID, delta temporal.Timestamp,
	orders LegOrders, s *fast.Scratch, diff, same *LegPairs) {
	b, c := g.Src()[e], g.Dst()[e]
	sb, sc := g.Seq(b), g.Seq(c)
	if len(sb.ID) == 1 || len(sc.ID) == 1 {
		return // a leaf endpoint: the window is the pivot alone
	}
	t := g.Times()[e]
	pos := temporal.EdgePositions(g)[e]
	pb, pc := int(pos[0]), int(pos[1])
	var fBefore, fAfter, gBefore, gAfter temporal.Seq
	if orders&srcBefore != 0 {
		fBefore = sb.Slice(windowStart(sb.Time, pb, t, delta), pb)
	}
	if orders&srcAfter != 0 {
		fAfter = sb.Slice(pb+1, windowEnd(sb.Time, pb, t, delta))
	}
	if orders&dstBefore != 0 {
		gBefore = sc.Slice(windowStart(sc.Time, pc, t, delta), pc)
	}
	if orders&dstAfter != 0 {
		gAfter = sc.Slice(pc+1, windowEnd(sc.Time, pc, t, delta))
	}
	CountLegPairsIn(fBefore, fAfter, gBefore, gAfter, b, c, delta, orders, s, diff, same)
}

// CountLegPairsIn is CountLegPairs on windows the caller has already cut: the
// legs at the pivot b→c's source b (f) and destination c (g) that lie before
// and after it, each in EdgeID order and within δ of the pivot. Only the
// halves the orders read need be set. s may be any scratch; a node ID beyond
// it grows it.
func CountLegPairsIn(fBefore, fAfter, gBefore, gAfter temporal.Seq, b, c temporal.NodeID,
	delta temporal.Timestamp, orders LegOrders, s *fast.Scratch, diff, same *LegPairs) {
	for o := LegOrder(0); o < numLegOrders; o++ {
		if orders&(1<<o) == 0 {
			continue
		}
		fs, gs := &fBefore, &gBefore // OrderFGM, OrderGFM
		switch o {
		case OrderFMG:
			gs = &gAfter
		case OrderMFG, OrderMGF:
			fs, gs = &fAfter, &gAfter
		case OrderGMF:
			fs = &fAfter
		}
		// The pivot separates the legs exactly when the sweep must slide on
		// the span; otherwise the window already implies it.
		bySpan := o == OrderFMG || o == OrderGMF
		if outerIsF[o] {
			sweepLegs(fs, gs, c, b, bySpan, delta, s, &diff[o], &same[o])
		} else {
			sweepLegs(gs, fs, b, c, bySpan, delta, s, &diff[o], &same[o])
		}
	}
}

// sweepLegs is one role order's sweep. Both sequences ascend in EdgeID (and
// so in time). For each outer leg the inner cursor first admits every partner
// the order allows — those with a smaller EdgeID, or with bySpan those no
// later than δ after it — and since either bound only grows along the outer
// walk, no inner leg is visited twice and none is ever retired. outerSkip and
// innerSkip are the far ends that put a leg on the pivot pair.
func sweepLegs(outer, inner *temporal.Seq, outerSkip, innerSkip temporal.NodeID, bySpan bool,
	delta temporal.Timestamp, s *fast.Scratch, diff, same *[2][2]uint64) {
	n := len(inner.ID)
	if len(outer.ID) == 0 || n == 0 {
		return
	}
	s.Reset()
	var total [2]uint64
	j := 0
	for i, x := range outer.Other {
		if x == outerSkip {
			continue
		}
		for ; j < n; j++ {
			if bySpan {
				if inner.Time[j]-outer.Time[i] > delta {
					break
				}
			} else if inner.ID[j] > outer.ID[i] {
				break
			}
			if y := inner.Other[j]; y != innerSkip {
				s.Bump(y, inner.Out[j])
				total[motif.DirOf(inner.Out[j])]++
			}
		}
		mIn, mOut := s.Vals(x)
		d := motif.DirOf(outer.Out[i])
		same[d][motif.In] += mIn
		same[d][motif.Out] += mOut
		diff[d][motif.In] += total[motif.In] - mIn
		diff[d][motif.Out] += total[motif.Out] - mOut
	}
}

package higher

import (
	"hare/internal/motif"
	"hare/internal/temporal"
)

// CountPath4Range does not run the pair sweep. Summed over pivots, the
// 4-node paths are all leg pairs minus the pairs whose legs share a far
// end, and every such pair is a δ-triangle with the pivot as one of its
// edges: one pair at each of its three edges, in a cell fixed by the
// triangle's FAST-Tri cell and by which edge is the pivot. So
//
//	paths = Σ_m all(m) − triPaths · Tri
//
// with Tri FAST-Tri's 24 owner cells and triPaths a constant map onto the
// 48 path slots: the temporal form of ESCAPE's "3-paths = Σ(d_u−1)(d_v−1)
// − 3·triangles" (Pinar, Seshadhri & Vishal, WWW 2017). Without the far
// ends no per-neighbour counter is needed. Of the six role orders, FGM and
// MFG are merges by EdgeID of the two halves on one side of the pivot, GFM
// and MGF are what those leave of the halves' products (two distinct legs
// on one side come in one order or the other), and FMG and GMF, whose legs
// the pivot separates, are merges on the span bound: four merges and two
// products per pivot, no scratch.

// mergeLegs adds to cell, laid out [outer leg out][inner leg out], every
// pair of an outer leg in o[oLo:oHi] and an inner leg in in[iLo:iHi] whose
// inner leg has the smaller EdgeID, or with bySpan lies no more than δ after
// the outer one. Both sequences ascend in EdgeID (and so in time), and
// either bound only grows along the outer walk, so the inner cursor never
// moves back. oSkip and inSkip are the far ends that put a leg on the pivot
// pair; such legs take no part. Without bySpan it also returns how many legs
// each side holds, by direction.
func mergeLegs(o *temporal.Seq, oLo, oHi int, in *temporal.Seq, iLo, iHi int, oSkip, inSkip temporal.NodeID,
	bySpan bool, delta temporal.Timestamp, cell *[2][2]uint64) (nOuter, nInner [2]uint64) {
	j := iLo
	for i := oLo; i < oHi; i++ {
		if o.Other[i] == oSkip {
			continue
		}
		for ; j < iHi; j++ {
			if bySpan {
				if in.Time[j]-o.Time[i] > delta {
					break
				}
			} else if in.ID[j] > o.ID[i] {
				break
			}
			if in.Other[j] != inSkip {
				nInner[motif.DirOf(in.Out[j])]++
			}
		}
		d := motif.DirOf(o.Out[i])
		nOuter[d]++
		cell[d][motif.In] += nInner[motif.In]
		cell[d][motif.Out] += nInner[motif.Out]
	}
	if !bySpan {
		for ; j < iHi; j++ {
			if in.Other[j] != inSkip {
				nInner[motif.DirOf(in.Out[j])]++
			}
		}
	}
	return nOuter, nInner
}

// addLegPairs adds every leg pair of pivot e, for all six role orders, to
// all: CountLegPairs' diff and same cells together, in the same layout.
func addLegPairs(g *temporal.Graph, e temporal.EdgeID, delta temporal.Timestamp, all *LegPairs) {
	b, c := g.Src()[e], g.Dst()[e]
	t := g.Times()[e]
	// f ranges over sb[fLo:pb] before the pivot and sb[pb+1:fHi] after it, g
	// over sc[gLo:pc] and sc[pc+1:gHi]. Without a leg at either end there is
	// no pair, and the other end need not be searched.
	sb := g.Seq(b)
	pb := pivotPos(sb.ID, e)
	fLo, fHi := windowStart(sb.Time, pb, t, delta), windowEnd(sb.Time, pb, t, delta)
	if fHi-fLo == 1 {
		return
	}
	sc := g.Seq(c)
	pc := pivotPos(sc.ID, e)
	gLo, gHi := windowStart(sc.Time, pc, t, delta), windowEnd(sc.Time, pc, t, delta)
	if gHi-gLo == 1 {
		return
	}
	var fgm, mfg [2][2]uint64 // [g out][f out], as outerIsF lays them out
	gB, fB := mergeLegs(&sc, gLo, pc, &sb, fLo, pb, b, c, false, delta, &fgm)
	gA, fA := mergeLegs(&sc, pc+1, gHi, &sb, pb+1, fHi, b, c, false, delta, &mfg)
	mergeLegs(&sb, fLo, pb, &sc, pc+1, gHi, c, b, true, delta, &all[OrderFMG])
	mergeLegs(&sc, gLo, pc, &sb, pb+1, fHi, b, c, true, delta, &all[OrderGMF])
	for x := range 2 {
		for y := range 2 {
			all[OrderFGM][x][y] += fgm[x][y]
			all[OrderMFG][x][y] += mfg[x][y]
			all[OrderGFM][x][y] += fB[x]*gB[y] - fgm[y][x] // [f out][g out]
			all[OrderMGF][x][y] += fA[x]*gA[y] - mfg[y][x]
		}
	}
}

// triPaths[i] holds the path slots that a triangle in TriCounter cell i
// fills as a same-far-end leg pair, one for each of its edges as the pivot.
// FAST-Tri's cell names the owner u, its edges e_i = u–v before e_j = u–w,
// the edge e_k = v–w ranked by the cell's type, and the directions of e_i,
// e_j relative to u and of e_k relative to v: the whole triangle, up to the
// names of its nodes.
var triPaths = func() (slots [len(motif.TriCounter{})][3]PathLabel) {
	type edge struct {
		src, dst temporal.NodeID
		rank     int
	}
	orient := func(u, v temporal.NodeID, d motif.Dir, rank int) edge {
		if d == motif.Out {
			return edge{u, v, rank}
		}
		return edge{v, u, rank}
	}
	for i := range slots {
		typ, di, dj, dk := motif.TriCell(i)
		rank := [...][3]int{motif.TriI: {1, 2, 0}, motif.TriII: {0, 2, 1}, motif.TriIII: {0, 1, 2}}[typ]
		es := [3]edge{orient(0, 1, di, rank[0]), orient(0, 2, dj, rank[1]), orient(1, 2, dk, rank[2])}
		for p, m := range es {
			// Of the other two edges, f meets the pivot's source b, g its
			// destination c, and both meet the third node.
			f, g := es[(p+1)%3], es[(p+2)%3]
			if f.src != m.src && f.dst != m.src {
				f, g = g, f
			}
			o := LegOrderOf(f.rank, m.rank, g.rank)
			outer, inner := motif.DirOf(g.src == m.dst), motif.DirOf(f.src == m.src)
			if outerIsF[o] {
				outer, inner = inner, outer
			}
			slots[i][p] = pathCells[o][outer][inner]
		}
	}
	return slots
}()

// subTriangles takes the same-far-end leg pairs of the triangles tallied in
// tri off the path counter.
func (c *PathCounter) subTriangles(tri *motif.TriCounter) {
	for i, v := range tri {
		for _, l := range triPaths[i] {
			c[l] -= v
		}
	}
}

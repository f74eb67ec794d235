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
// ends no per-neighbour counter is needed, and a pivot's leg pairs come
// from two merged walks out from its own positions in S_b and S_c, which
// temporal.EdgePositions gives in O(1). Of the six role orders, FGM and MFG
// pair two legs on one side of the pivot in EdgeID order, and GFM and MGF
// are what those leave of the halves' products (two distinct legs on one
// side come in one order or the other). FMG and GMF, whose legs the pivot
// separates, pair the after-walk's legs with the before-halves' legs still
// within δ of them.

// addLegPairs adds every leg pair of pivot e, for all six role orders, to
// all: CountLegPairs' diff and same cells together, in the same layout. pos
// is the graph's temporal.EdgePositions.
func addLegPairs(g *temporal.Graph, pos [][2]int32, e temporal.EdgeID, delta temporal.Timestamp, all *LegPairs) {
	b, c := g.Src()[e], g.Dst()[e]
	t := g.Times()[e]
	sb, sc := g.Seq(b), g.Seq(c)
	pb, pc := int(pos[e][0]), int(pos[e][1])
	// Without a leg within δ at either end there is no pair; the nearest leg
	// on each side of the pivot tells.
	if !hasLeg(sb.Time, pb, t, delta) || !hasLeg(sc.Time, pc, t, delta) {
		return
	}
	// f walks S_b and g walks S_c. Legs whose far end is the other pivot
	// endpoint (multi-edges of the pivot pair) are stepped over: the only
	// edges both sequences hold, so a merge never compares two live legs
	// with one EdgeID.
	//
	// Backward: newest first, merged by EdgeID, to where both sides leave
	// δ. Each f meets the g already passed, whose EdgeIDs are larger: FGM.
	var fB, gB [2]uint64      // legs before the pivot, by direction
	var fgm, mfg [2][2]uint64 // [g out][f out], as outerIsF lays them out
	i, j := pb-1, pc-1
	for {
		fIn := i >= 0 && t-sb.Time[i] <= delta
		gIn := j >= 0 && t-sc.Time[j] <= delta
		if fIn && (!gIn || sb.ID[i] > sc.ID[j]) {
			if sb.Other[i] != c {
				d := motif.DirOf(sb.Out[i])
				fB[d]++
				fgm[motif.In][d] += gB[motif.In]
				fgm[motif.Out][d] += gB[motif.Out]
			}
			i--
		} else if gIn {
			if sc.Other[j] != b {
				gB[motif.DirOf(sc.Out[j])]++
			}
			j--
		} else {
			break
		}
	}
	// Forward: oldest first, merged by EdgeID, to where both sides leave δ.
	// Each g meets the f already passed: MFG. Trailing cursors rf and rg
	// retire the before-legs more than δ older than the current leg, so the
	// live ones are its partners across the pivot: FMG for a g, GMF for an
	// f.
	var fA, gA [2]uint64
	liveF, liveG := fB, gB
	var fmg, gmf [2][2]uint64 // [f out][g out] and [g out][f out]
	rf, rg := i+1, j+1
	i, j = pb+1, pc+1
	for {
		fIn := i < len(sb.ID) && sb.Time[i]-t <= delta
		gIn := j < len(sc.ID) && sc.Time[j]-t <= delta
		if fIn && (!gIn || sb.ID[i] < sc.ID[j]) {
			if sb.Other[i] != c {
				for ft := sb.Time[i]; rg < pc && ft-sc.Time[rg] > delta; rg++ {
					if sc.Other[rg] != b {
						liveG[motif.DirOf(sc.Out[rg])]--
					}
				}
				d := motif.DirOf(sb.Out[i])
				fA[d]++
				gmf[motif.In][d] += liveG[motif.In]
				gmf[motif.Out][d] += liveG[motif.Out]
			}
			i++
		} else if gIn {
			if sc.Other[j] != b {
				for gt := sc.Time[j]; rf < pb && gt-sb.Time[rf] > delta; rf++ {
					if sb.Other[rf] != c {
						liveF[motif.DirOf(sb.Out[rf])]--
					}
				}
				d := motif.DirOf(sc.Out[j])
				gA[d]++
				mfg[d][motif.In] += fA[motif.In]
				mfg[d][motif.Out] += fA[motif.Out]
				fmg[motif.In][d] += liveF[motif.In]
				fmg[motif.Out][d] += liveF[motif.Out]
			}
			j++
		} else {
			break
		}
	}
	for x := range 2 {
		for y := range 2 {
			all[OrderFGM][x][y] += fgm[x][y]
			all[OrderMFG][x][y] += mfg[x][y]
			all[OrderFMG][x][y] += fmg[x][y]
			all[OrderGMF][x][y] += gmf[x][y]
			all[OrderGFM][x][y] += fB[x]*gB[y] - fgm[y][x] // [f out][g out]
			all[OrderMGF][x][y] += fA[x]*gA[y] - mfg[y][x]
		}
	}
}

// hasLeg tells whether a sequence holds an edge other than the one at pos
// within δ of its time t: the nearest one on either side decides.
func hasLeg(times []temporal.Timestamp, pos int, t, delta temporal.Timestamp) bool {
	return pos > 0 && t-times[pos-1] <= delta || pos+1 < len(times) && times[pos+1]-t <= delta
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

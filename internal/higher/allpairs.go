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
// ends no per-neighbour counter is needed, and leg pairs are counts of legs
// in ranges of S_b and S_c.
//
// The pivots between the same two nodes {b, c} (g.Between(b, c), in EdgeID
// order and so in time order) find their legs in the same two sequences, S_b
// and S_c less the pair's own edges, and on a busy pair most of their
// windows overlap. So the unit of work is a run of one pair's pivots, each
// no more than δ after the one before it (their windows overlap by at least
// half), within [lo, hi) and within one aligned block of 2^unitShift
// EdgeIDs, which keeps a unit to a few dynamic chunks' work (addRange). The
// run's first pivot owns the unit, collects it along temporal.PairLinks
// (each pivot's neighbours on its pair, in O(1)), and the others skip it.
//
// A unit of several pivots is one walk (pairScratch.walk) over the union of
// their windows, merged by EdgeID, stepping over the pair's own edges. It
// keeps prefix tallies (legPrefix): per side and direction the legs passed,
// and over each side's legs the sums of the other side's legs passed before
// them (p) and of those more than δ older (r). Three cursors over the pivots
// move forward with the walk and mark each pivot at its window start, at
// itself and at its window end, and every role order is an O(1) difference
// of the tallies at those marks (pivotMarks): FGM and MFG pair f before g on
// one side of the pivot, GFM and MGF are what those leave of the halves'
// products, and FMG and GMF, whose legs the pivot separates, are the
// products less the pairs more than δ apart. A unit of one pivot is walked
// by addLegPairs, two merged walks out from the pivot's own positions
// (temporal.EdgePositions). Scratch is one worker's and reused: a ring of
// the marks of the pivots whose windows are open, so it grows to the most
// pivots of one unit within 2δ of each other, never with the node count,
// and the run's pivots, at most 2^unitShift.

// legPrefix is a pair walk's running tally. Side 0 is S_b and side 1 is
// S_c of the pair {b, c} the walk was started from, and a leg's direction is
// relative to the node of its side.
type legPrefix struct {
	c [2][2]uint64 // [side][dir]: the legs passed
	// p[s][x][y] sums, over the legs of side 1−s and direction y passed, the
	// side-s legs of direction x passed before them; r the same for the
	// side-s legs more than δ older than them.
	p, r [2][2][2]uint64
}

// pivotMarks is what a pair walk keeps of one pivot between its window
// start and its window end, from the pivot's own point of view: f are its
// source's legs and g its destination's.
type pivotMarks struct {
	fs int // the side of f
	// At the window start: the f and g legs passed, and p of f before g.
	loF, loG [2]uint64
	loP      [2][2]uint64
	// At the pivot: the same, and r of f before g (rF) and g before f (rG).
	midF, midG   [2]uint64
	midP, rF, rG [2][2]uint64
}

// pairScratch is one worker's reusable pair-walk state: the pivots of the
// run being walked, and a ring of the marks of the pivots whose windows the
// walk has entered and not yet left.
type pairScratch struct {
	ids   []temporal.EdgeID
	times []temporal.Timestamp
	outs  []bool
	ring  []pivotMarks // pivot k at ring[k & (len−1)]; len is a power of two
}

// unitShift bounds a unit to one aligned block of 2^unitShift EdgeIDs, so
// that no unit outweighs a few dynamic chunks of pivots.
const unitShift = 9

// addRange adds to all the leg pairs of the units whose first pivot lies in
// [from, to) ⊆ [lo, hi): runs of one pair's pivots with EdgeIDs in [lo, hi)
// and in one block of 2^unitShift, each no more than δ after the one before
// it. Each pivot's tally is the same whichever unit holds it, so any cut of
// the edge IDs, between two pivots of a pair too, leaves the sum unchanged.
func (s *pairScratch) addRange(g *temporal.Graph, from, to int, delta temporal.Timestamp, lo, hi int, all *LegPairs) {
	ts, src, dst := g.Times(), g.Src(), g.Dst()
	links, pos := temporal.PairLinks(g), temporal.EdgePositions(g)
	// joined tells whether the neighbouring pivots x < y of a pair are in
	// one unit.
	joined := func(x, y temporal.EdgeID) bool {
		return x >= temporal.EdgeID(lo) && y < temporal.EdgeID(hi) && x>>unitShift == y>>unitShift && ts[y]-ts[x] <= delta
	}
	for id := from; id < to; id++ {
		e := temporal.EdgeID(id)
		link := links[e]
		if link[0] >= 0 && joined(link[0], e) {
			continue // the unit of an earlier pivot
		}
		b, c := src[e], dst[e]
		if link[1] < 0 || !joined(e, link[1]) {
			addLegPairs(g, b, c, int(pos[e][0]), int(pos[e][1]), ts[e], delta, all)
			continue
		}
		// The run's pivots, along the links: side 0 is S_b.
		run := temporal.Seq{ID: s.ids[:0], Time: s.times[:0], Out: s.outs[:0]}
		for x := e; ; x = links[x][1] {
			run.ID, run.Time, run.Out = append(run.ID, x), append(run.Time, ts[x]), append(run.Out, src[x] == b)
			if next := links[x][1]; next < 0 || !joined(x, next) {
				break
			}
		}
		s.ids, s.times, s.outs = run.ID, run.Time, run.Out
		s.walk(g, b, c, run, 0, len(run.ID), delta, all)
	}
}

// walk adds the leg pairs of the pivots ps[k0:k1) to all: edges between b
// and c in EdgeID order, of which it reads ID, Time and Out (relative to
// b), such as g.Between(b, c) or a run of it. It visits the legs within δ
// of any of those pivots once each, merged by EdgeID, keeping the running
// legPrefix, and marks each pivot at its window start (the first leg no
// more than δ before it), at itself (the first leg after it) and at its
// window end (the first leg more than δ after it): three cursors over the
// pivots, each moving forward with the walk. Legs whose far end is the
// other node of the pair are the pair's own edges and are stepped over.
// Where no window is open the walk jumps to the next pivot's window start;
// the tallies then count the legs passed, not the legs of the sequence,
// which every difference within one window reads alike.
func (s *pairScratch) walk(g *temporal.Graph, b, c temporal.NodeID, ps temporal.Seq, k0, k1 int,
	delta temporal.Timestamp, all *LegPairs) {
	sa, sb := g.Seq(b), g.Seq(c)
	if len(s.ring) == 0 {
		s.ring = make([]pivotMarks, 16)
	}
	mask := len(s.ring) - 1
	var st legPrefix
	var oldA, oldB [2]uint64 // the legs of each side passed more than δ before the current leg
	var ia, ib, ra, rb int   // the walk's and the trailing cursors in S_b and S_c
	kl, km, kh := k0, k0, k0 // the next pivots to meet their window start, themselves, their window end
	for {
		var t temporal.Timestamp
		var id temporal.EdgeID
		side := 2 // no leg left
		if ia < len(sa.ID) && (ib == len(sb.ID) || sa.ID[ia] < sb.ID[ib]) {
			if sa.Other[ia] == c {
				ia++
				continue
			}
			side, id, t = 0, sa.ID[ia], sa.Time[ia]
		} else if ib < len(sb.ID) {
			if sb.Other[ib] == b {
				ib++
				continue
			}
			side, id, t = 1, sb.ID[ib], sb.Time[ib]
		}
		if none := side == 2; none || kl == kh || kl < k1 && ps.Time[kl]-t <= delta ||
			km < kl && ps.ID[km] < id || kh < km && t-ps.Time[kh] > delta {
			for ; kl < k1 && (none || ps.Time[kl]-t <= delta); kl++ {
				if kl-kh > mask {
					s.grow(kh, kl)
					mask = len(s.ring) - 1
				}
				s.ring[kl&mask].start(&st, ps.Out[kl])
			}
			for ; km < kl && (none || ps.ID[km] < id); km++ {
				s.ring[km&mask].pivot(&st, all)
			}
			for ; kh < km && (none || t-ps.Time[kh] > delta); kh++ {
				s.ring[kh&mask].end(&st, all)
			}
			if kh == k1 {
				return
			}
			if kl == kh {
				// No window is open and the leg is older than the next
				// pivot's window. The pivots without a leg on either side
				// have no pair and are passed over; then the walk jumps to
				// the next one's window start.
				var pa, pb int
				for ; kl < k1; kl++ {
					pos := temporal.EdgePositions(g)[ps.ID[kl]]
					pa, pb = int(pos[0]), int(pos[1])
					if !ps.Out[kl] {
						pa, pb = pb, pa
					}
					if legNear(&sa, pa, ps.Time[kl], delta, c) && legNear(&sb, pb, ps.Time[kl], delta, b) {
						break
					}
				}
				if km, kh = kl, kl; kl == k1 {
					return
				}
				ia = max(ia, windowStart(sa.Time, pa, ps.Time[kl], delta))
				ib = max(ib, windowStart(sb.Time, pb, ps.Time[kl], delta))
				ra, rb, oldA, oldB = ia, ib, st.c[0], st.c[1]
				continue
			}
		}
		// Admit the leg: it follows the other side's legs passed (p), and
		// of those, the ones more than δ older than it (r).
		if side == 0 {
			for ; rb < ib && t-sb.Time[rb] > delta; rb++ {
				if sb.Other[rb] != b {
					oldB[motif.DirOf(sb.Out[rb])]++
				}
			}
			d := motif.DirOf(sa.Out[ia])
			st.p[1][motif.In][d] += st.c[1][motif.In]
			st.p[1][motif.Out][d] += st.c[1][motif.Out]
			st.r[1][motif.In][d] += oldB[motif.In]
			st.r[1][motif.Out][d] += oldB[motif.Out]
			st.c[0][d]++
			ia++
		} else {
			for ; ra < ia && t-sa.Time[ra] > delta; ra++ {
				if sa.Other[ra] != c {
					oldA[motif.DirOf(sa.Out[ra])]++
				}
			}
			d := motif.DirOf(sb.Out[ib])
			st.p[0][motif.In][d] += st.c[0][motif.In]
			st.p[0][motif.Out][d] += st.c[0][motif.Out]
			st.r[0][motif.In][d] += oldA[motif.In]
			st.r[0][motif.Out][d] += oldA[motif.Out]
			st.c[1][d]++
			ib++
		}
	}
}

// legNear tells whether a sequence holds a leg within δ of the time t of
// the edge at pos: an edge whose far end is not skip.
func legNear(s *temporal.Seq, pos int, t, delta temporal.Timestamp, skip temporal.NodeID) bool {
	for i := pos - 1; i >= 0 && t-s.Time[i] <= delta; i-- {
		if s.Other[i] != skip {
			return true
		}
	}
	for i := pos + 1; i < len(s.Time) && s.Time[i]-t <= delta; i++ {
		if s.Other[i] != skip {
			return true
		}
	}
	return false
}

// grow doubles the ring, keeping the marks of the pivots [kh, kl).
func (s *pairScratch) grow(kh, kl int) {
	ring := make([]pivotMarks, 2*len(s.ring))
	for k := kh; k < kl; k++ {
		ring[k&(len(ring)-1)] = s.ring[k&(len(s.ring)-1)]
	}
	s.ring = ring
}

// start marks the pivot's window start; bOut tells whether the pivot leaves
// the walk's node b, whose legs are side 0.
func (m *pivotMarks) start(st *legPrefix, bOut bool) {
	m.fs = 1
	if bOut {
		m.fs = 0
	}
	m.loF, m.loG, m.loP = st.c[m.fs], st.c[1-m.fs], st.p[m.fs]
}

// pivot marks the pivot itself and adds the pairs of the legs before it:
// FGM pairs f before g, and GFM is the rest of the halves' product. Every
// cell is exact modulo 2^64, so the differences wrap back to the counts.
func (m *pivotMarks) pivot(st *legPrefix, all *LegPairs) {
	fs, gs := m.fs, 1-m.fs
	for x := range 2 { // f's direction
		fBefore := st.c[fs][x] - m.loF[x]
		for y := range 2 { // g's direction
			gBefore := st.c[gs][y] - m.loG[y]
			fgm := st.p[fs][x][y] - m.loP[x][y] - gBefore*m.loF[x]
			all[OrderFGM][y][x] += fgm
			all[OrderGFM][x][y] += fBefore*gBefore - fgm
		}
	}
	m.midF, m.midG, m.midP, m.rF, m.rG = st.c[fs], st.c[gs], st.p[fs], st.r[fs], st.r[gs]
}

// end adds the pairs with a leg after the pivot at its window end: MFG pairs
// f before g after the pivot, and MGF is the rest of the halves' product;
// FMG and GMF pair each leg after the pivot with the other side's legs
// before it, less those more than δ older.
func (m *pivotMarks) end(st *legPrefix, all *LegPairs) {
	fs, gs := m.fs, 1-m.fs
	for x := range 2 {
		fAfter := st.c[fs][x] - m.midF[x]
		for y := range 2 {
			gAfter := st.c[gs][y] - m.midG[y]
			mfg := st.p[fs][x][y] - m.midP[x][y] - gAfter*m.midF[x]
			all[OrderMFG][y][x] += mfg
			all[OrderMGF][x][y] += fAfter*gAfter - mfg
			all[OrderFMG][x][y] += gAfter*m.midF[x] - (st.r[fs][x][y] - m.rF[x][y])
			all[OrderGMF][y][x] += fAfter*m.midG[y] - (st.r[gs][y][x] - m.rG[y][x])
		}
	}
}

// addLegPairs adds every leg pair of the pivot b→c at time t, at position pb
// of S_b and pc of S_c, for all six role orders, to all: CountLegPairs' diff
// and same cells together, in the same layout. It walks the pivot's windows
// alone, for a unit of one pivot.
func addLegPairs(g *temporal.Graph, b, c temporal.NodeID, pb, pc int, t, delta temporal.Timestamp, all *LegPairs) {
	sb, sc := g.Seq(b), g.Seq(c)
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
			o := legOrderOf(f.rank, m.rank, g.rank)
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

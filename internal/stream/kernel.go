package stream

import (
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// countArrival tallies every motif instance completed by the edge
// (id, u->v, t): the arriving edge is the chronologically last edge of each
// instance. uw and vw are columnar views of the endpoints' δ-windows as of
// the arrival — edges with ID < id and Time >= t-δ.
func countArrival(counts *motif.Counts, uw, vw temporal.Seq, u, v temporal.NodeID,
	delta temporal.Timestamp, s *fast.Scratch) {
	fast.CountBefore(uw, v, true, counts, s)
	fast.CountBefore(vw, u, false, counts, s)
	var diff, same higher.LegPairs
	higher.CountLegPairsIn(uw, temporal.Seq{}, vw, temporal.Seq{}, u, v, delta,
		1<<higher.OrderFGM|1<<higher.OrderGFM, s, &diff, &same)
	addTriangles(&counts.Tri, &same, true)
}

// countRetire tallies every still-live motif instance whose chronologically
// first edge is the expiring edge (id, u->v, t): its two later edges lie in
// the endpoints' forward windows — edges with ID > id and Time <= t+δ.
// Every such instance was counted at arrival time (all three edges span
// <= δ), so subtracting these tallies retires exactly the instances that
// drop out of the sliding window.
func countRetire(counts *motif.Counts, uw, vw temporal.Seq, u, v temporal.NodeID,
	t, delta temporal.Timestamp, s *fast.Scratch) {
	fast.CountAfter(uw, t, v, true, delta, counts, s)
	fast.CountAfter(vw, t, u, false, delta, counts, s)
	var diff, same higher.LegPairs
	higher.CountLegPairsIn(temporal.Seq{}, uw, temporal.Seq{}, vw, u, v, delta,
		1<<higher.OrderMFG|1<<higher.OrderMGF, s, &diff, &same)
	addTriangles(&counts.Tri, &same, false)
}

// addTriangles records the triangles on the fixed edge u->v from the pair
// sweep's same-far-end tallies, f being the leg at u and g the leg at v:
// orders FGM and GFM when u->v arrives (it is last), MFG and MGF when it
// retires (it is first).
//
// Both cases record the instance in the cell its *arrival* classification
// uses — Triangle-III from the perspective of the vertex not on the last
// edge — so the sliding window's retired tallies subtract cell-exactly from
// the cumulative ones: di/dj are the center-incident edges' directions in
// chronological order, dk the last edge's direction relative to the first
// edge's far endpoint.
func addTriangles(tri *motif.TriCounter, same *higher.LegPairs, arrival bool) {
	for _, fOut := range [2]bool{false, true} {
		for _, gOut := range [2]bool{false, true} {
			fd, gd := motif.DirOf(fOut), motif.DirOf(gOut)
			if arrival {
				// The center is the legs' common far end, so they flip to its
				// view; the first leg's far end is u (u->v leaves it) or v.
				tri[motif.TriIndex(motif.TriIII, fd.Flip(), gd.Flip(), motif.Out)] += same.At(higher.OrderFGM, fOut, gOut)
				tri[motif.TriIndex(motif.TriIII, gd.Flip(), fd.Flip(), motif.In)] += same.At(higher.OrderGFM, fOut, gOut)
			} else {
				// The later leg is last and the center its pivot endpoint's
				// partner: u when g is last, v when f is. Every leg is already
				// stored relative to it.
				tri[motif.TriIndex(motif.TriIII, motif.Out, fd, gd)] += same.At(higher.OrderMFG, fOut, gOut)
				tri[motif.TriIndex(motif.TriIII, motif.In, gd, fd)] += same.At(higher.OrderMGF, fOut, gOut)
			}
		}
	}
}

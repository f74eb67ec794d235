package query

import (
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/temporal"
)

// Domain returns the size of the plan's pivot range domain on g: NumNodes
// for center plans, NumEdges for edge plans. ExecuteRange over any
// partition of [0, Domain(g)) sums exactly to Execute — the contract the
// shard tier's scatter/gather rides on.
func (p *Plan) Domain(g *temporal.Graph) int {
	if p.kind == PlanCenter {
		return g.NumNodes()
	}
	return g.NumEdges()
}

// Execute counts the spec's instances in g within δ, scheduling with the
// same worker/degree-threshold/chunking machinery as the hand-tuned
// counters. The result is exact and bit-identical at any worker count.
func (p *Plan) Execute(g *temporal.Graph, delta temporal.Timestamp, opts Options) uint64 {
	return p.ExecuteRange(g, delta, opts, 0, p.Domain(g))
}

// PivotCount counts the instances bound to one pivot ID: the per-center
// cell for PlanCenter (id is a node), the per-pivot-edge tally for PlanEdge
// (id is an edge). ExecuteRange over any ID set equals the sum of
// PivotCount over it; samplers (internal/approx) call this per draw,
// reusing one scratch (covering the graph's node IDs) across draws instead
// of paying a range dispatch each.
func (p *Plan) PivotCount(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch) uint64 {
	switch {
	case p.kind == PlanCenter:
		s4, _ := higher.CountNode(g, temporal.NodeID(id), delta, scratch)
		return s4.At(p.dirs[0], p.dirs[1], p.dirs[2])
	case p.sweep != nil:
		var diff, same higher.LegPairs
		higher.CountLegPairs(g, temporal.EdgeID(id), delta, 1<<p.sweep.order, scratch, &diff, &same)
		return p.sweep.cell(&diff, &same)
	}
	return p.scanPivotEdge(g, temporal.EdgeID(id), delta)
}

// cell reads the plan's count off the sweep's tallies.
func (sw *legSweep) cell(diff, same *higher.LegPairs) uint64 {
	if sw.same {
		return same.At(sw.order, sw.fOut, sw.gOut)
	}
	return diff.At(sw.order, sw.fOut, sw.gOut)
}

// padCount keeps per-worker tallies on separate cache lines; the merge sums
// in worker order (exact uint64 addition, so order is immaterial anyway).
type padCount struct {
	v uint64
	_ [56]byte
}

// ExecuteRange counts the instances whose pivot ID (center node for
// PlanCenter, pivot-slot graph edge for PlanEdge) lies in the half-open
// range [lo, hi), clamped to [0, Domain(g)).
func (p *Plan) ExecuteRange(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) uint64 {
	switch {
	case p.kind == PlanCenter:
		// Delegation: a 4-node center spec is exactly one cell of the star
		// counter (the leaf assignment is forced by temporal order), so the
		// compiled plan *is* the hand-tuned machinery plus a cell read.
		c := higher.CountStar4Range(g, delta, opts, lo, hi)
		return c.At(p.dirs[0], p.dirs[1], p.dirs[2])
	case p.sweep != nil:
		// Likewise a path or triangle spec is one cell of the pair sweep, of
		// which only the one role order the slots select is run.
		diff, same := higher.SweepEdgesRange(g, delta, opts, 1<<p.sweep.order, lo, hi)
		return p.sweep.cell(&diff, &same)
	}
	per := make([]padCount, opts.EffectiveWorkers())
	higher.ForEdgesRange(g, opts, lo, hi, func(w int, id temporal.EdgeID) {
		per[w].v += p.scanPivotEdge(g, id, delta)
	})
	var total uint64
	for i := range per {
		total += per[i].v
	}
	return total
}

// scanPivotEdge is the nested scan, for the edge plans the pair sweep does
// not describe: it tallies every instance whose first edge is the graph edge
// e (Compile pivots these plans on slot 0). Bind the first spec edge's
// variables to e's endpoints, then run the two compiled enumeration levels,
// each over the part of its anchor endpoint's sequence that follows e within
// δ — exactly the edges that can come later in an instance e opens, so the
// span needs no further test and only the order of the two candidates does.
// Each candidate graph edge appears exactly once in its level's window (no
// self-loops), and an instance determines its pivot edge and variable
// assignment uniquely (a connected spec using every variable has no
// order-preserving automorphisms), so per-pivot-edge tallies sum without
// correction — the unit of work for ForEdgesRange and the shard tier.
func (p *Plan) scanPivotEdge(g *temporal.Graph, e temporal.EdgeID, delta temporal.Timestamp) uint64 {
	pe := p.spec.edges[p.pivotSlot]
	var nodes [MaxNodes]temporal.NodeID
	nodes[pe.Src], nodes[pe.Dst] = g.Src()[e], g.Dst()[e]
	t := g.Times()[e]

	s0, s1 := &p.steps[0], &p.steps[1]
	w0 := higher.AfterPivot(g.Seq(nodes[s0.anchor]), e, t, delta)
	w1 := w0
	if s1.anchor != s0.anchor {
		w1 = higher.AfterPivot(g.Seq(nodes[s1.anchor]), e, t, delta)
	}
	var count uint64
	from, n1 := 0, len(w1.ID)
	for i := range w0.ID {
		if w0.Out[i] != s0.wantOut || !bindOther(s0, w0.Other[i], &nodes) {
			continue
		}
		// Temporal order is EdgeID order (the repo-wide total order): the
		// third edge must follow the second, which also keeps them distinct.
		// Both windows ascend in EdgeID, so where the third may start only
		// moves forward.
		for from < n1 && w1.ID[from] <= w0.ID[i] {
			from++
		}
		for j := from; j < n1; j++ {
			if w1.Out[j] == s1.wantOut && bindOther(s1, w1.Other[j], &nodes) {
				count++
			}
		}
	}
	return count
}

// bindOther applies a step's far-end constraint to candidate node ov:
// equality against the already-bound variable, or the injectivity filter
// followed by binding. Reports whether the candidate survives.
func bindOther(st *step, ov temporal.NodeID, nodes *[MaxNodes]temporal.NodeID) bool {
	if st.otherBound {
		return ov == nodes[st.other]
	}
	for _, v := range st.distinct {
		if ov == nodes[v] {
			return false
		}
	}
	nodes[st.other] = ov
	return true
}

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
// reusing one scratch across draws instead of paying a range dispatch each.
func (p *Plan) PivotCount(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch) uint64 {
	if p.kind == PlanCenter {
		s4, _ := higher.CountNode(g, temporal.NodeID(id), delta, scratch)
		return s4.At(p.dirs[0], p.dirs[1], p.dirs[2])
	}
	return p.countPivotEdge(g, temporal.EdgeID(id), delta)
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
	if p.kind == PlanCenter {
		// Delegation: a 4-node center spec is exactly one cell of the star
		// counter (the leaf assignment is forced by temporal order), so the
		// compiled plan *is* the hand-tuned machinery plus a cell read.
		c := higher.CountStar4Range(g, delta, opts, lo, hi)
		return c.At(p.dirs[0], p.dirs[1], p.dirs[2])
	}
	per := make([]padCount, opts.EffectiveWorkers())
	higher.ForEdgesRange(g, opts, lo, hi, func(w int, id temporal.EdgeID) {
		per[w].v += p.countPivotEdge(g, id, delta)
	})
	var total uint64
	for i := range per {
		total += per[i].v
	}
	return total
}

// countPivotEdge tallies every instance whose pivot-slot edge is the graph
// edge e: bind the pivot spec edge's variables to e's endpoints, then run
// the two compiled enumeration levels over the δ windows (±δ around e's
// time — a sound superset, since an instance spans ≤ δ) of their anchor
// nodes' chronological sequences. Each candidate graph edge appears exactly
// once in its level's anchor window (no self-loops), and an instance
// determines its pivot edge and variable assignment uniquely (a connected
// spec using every variable has no order-preserving automorphisms), so
// per-pivot-edge tallies sum without correction — the unit of work for
// ForEdgesRange and the shard tier.
func (p *Plan) countPivotEdge(g *temporal.Graph, e temporal.EdgeID, delta temporal.Timestamp) uint64 {
	pe := p.spec.edges[p.pivotSlot]
	var nodes [MaxNodes]temporal.NodeID
	var ids [SpecEdges]temporal.EdgeID
	var times [SpecEdges]temporal.Timestamp
	nodes[pe.Src], nodes[pe.Dst] = g.Src()[e], g.Dst()[e]
	mt := g.Times()[e]
	ids[p.pivotSlot], times[p.pivotSlot] = e, mt

	s0, s1 := &p.steps[0], &p.steps[1]
	w0 := higher.WindowAround(g.Seq(nodes[s0.anchor]), mt, delta)
	var w1 temporal.Seq
	if s1.hoist {
		w1 = higher.WindowAround(g.Seq(nodes[s1.anchor]), mt, delta)
	}
	var count uint64
	for i := 0; i < w0.Len(); i++ {
		if w0.Out[i] != s0.wantOut {
			continue
		}
		if !bindOther(s0, w0.Other[i], &nodes) {
			continue
		}
		ids[s0.slot], times[s0.slot] = w0.ID[i], w0.Time[i]
		wi := w1
		if !s1.hoist {
			wi = higher.WindowAround(g.Seq(nodes[s1.anchor]), mt, delta)
		}
		for j := 0; j < wi.Len(); j++ {
			if wi.Out[j] != s1.wantOut {
				continue
			}
			if !bindOther(s1, wi.Other[j], &nodes) {
				continue
			}
			ids[s1.slot], times[s1.slot] = wi.ID[j], wi.Time[j]
			// Temporal order is EdgeID order (the repo-wide total order):
			// the listing order of the spec must be strictly increasing,
			// which also enforces the three edges are distinct.
			if ids[0] < ids[1] && ids[1] < ids[2] && higher.Span3(times[0], times[1], times[2]) <= delta {
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

package query

import (
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// PivotDomain returns the size of the plan's pivot ID space on g, the ids
// PivotCount takes: NumNodes for center plans, NumEdges for edge plans.
// Samplers (internal/approx) draw from it.
func (p *Plan) PivotDomain(g *temporal.Graph) int {
	if p.kind == PlanCenter {
		return g.NumNodes()
	}
	return g.NumEdges()
}

// RangeDomain returns the size of the plan's range domain on g, the bounds
// ExecuteRange takes: the incidence positions NumIncidences for center plans
// (engine.Sweep), whose equal ranges hold about equal work however skewed
// the degrees are, and edge IDs NumEdges for edge plans. ExecuteRange over
// any partition of [0, RangeDomain(g)) sums exactly to Execute — the contract
// the shard tier's scatter/gather rides on.
func (p *Plan) RangeDomain(g *temporal.Graph) int {
	if p.kind == PlanCenter {
		return g.NumIncidences()
	}
	return g.NumEdges()
}

// Execute counts the spec's instances in g within δ, scheduling with the
// same worker/degree-threshold/chunking machinery as the hand-tuned
// counters. The result is exact and bit-identical at any worker count.
func (p *Plan) Execute(g *temporal.Graph, delta temporal.Timestamp, opts Options) uint64 {
	return p.ExecuteRange(g, delta, opts, 0, p.RangeDomain(g))
}

// PivotCount counts the instances bound to one pivot ID: the per-center
// cell for PlanCenter (id is a node), the per-pivot-edge tally for PlanEdge
// (id is an edge). ExecuteRange over any ID set equals the sum of
// PivotCount over it; samplers (internal/approx) call this per draw,
// reusing one scratch (covering the graph's node IDs) across draws instead
// of paying a range dispatch each.
func (p *Plan) PivotCount(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch) uint64 {
	if p.kind == PlanCenter {
		s4, counts := higher.CountNode(g, temporal.NodeID(id), delta, scratch)
		return p.centerCount(&s4, &counts)
	}
	var diff, same higher.LegPairs
	higher.CountLegPairs(g, temporal.EdgeID(id), delta, 1<<p.sweep.order, scratch, &diff, &same)
	return p.sweep.cell(&diff, &same)
}

// ExecuteRange counts the instances found in the half-open range [lo, hi)
// of the plan's range domain, clamped to [0, RangeDomain(g)): the incidence
// positions of the star counter's range form for a center plan (an instance
// at its center, by its last edge), the pivot-slot graph edge IDs of the pair
// sweep for an edge plan, of which only the one role order the slots select
// is run. Either way the compiled plan *is* the hand-tuned machinery plus a
// cell read.
func (p *Plan) ExecuteRange(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) uint64 {
	if p.kind == PlanCenter {
		s4, counts := higher.CountStar4Range(g, delta, opts, lo, hi)
		return p.centerCount(&s4, &counts)
	}
	diff, same := higher.SweepEdgesRange(g, delta, opts, 1<<p.sweep.order, lo, hi)
	return p.sweep.cell(&diff, &same)
}

// centerCount reads a center plan's cell off the per-center counters, in
// the family the spec's node count selects: the 4-node star complement,
// FAST-Star's star counter, or its pair counter.
func (p *Plan) centerCount(s4 *higher.Star4Counter, counts *motif.Counts) uint64 {
	switch p.spec.nodes {
	case MaxNodes:
		return s4[p.cell]
	case 3:
		return counts.Star[p.cell]
	}
	return counts.Pair[p.cell]
}

// cell reads the plan's count off the sweep's tallies.
func (sw *legSweep) cell(diff, same *higher.LegPairs) uint64 {
	if sw.same {
		return same.At(sw.order, sw.fOut, sw.gOut)
	}
	return diff.At(sw.order, sw.fOut, sw.gOut)
}

package query

import (
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/temporal"
)

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

// PivotCount counts the instances of an edge plan whose middle is edge id
// (higher.CountPathCell): summed over every edge ID it equals Execute. An
// ExecuteRange partial is not the sum over its range: it also holds the
// range's triangles, which only the triangle correction of a whole partition
// takes off. The sampler (internal/approx) calls this per draw, reusing one
// scratch (covering the graph's node IDs) across draws instead of paying a
// range dispatch each. Center plans are never sampled — their exact kernels
// are as fast as a sample — so they have no per-pivot form.
func (p *Plan) PivotCount(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch) uint64 {
	return higher.CountPathCell(g, temporal.EdgeID(id), delta, higher.PathLabel(p.cells[0]), scratch)
}

// ExecuteRange counts the share of the instances that belongs to the
// half-open range [lo, hi) of the plan's range domain, clamped to
// [0, RangeDomain(g)): it runs one served range counter and sums the plan's
// cells of it. A center plan reads incidence positions of the node-pivot
// kernels: FAST-Tri for a triangle (an instance at its owner, by its first
// edge), the star/pair sweep for the rest (at its center, by its last edge).
// An edge plan reads edge IDs of CountPath4Range, whose partial is the
// range's leg pairs minus the triangle correction of incidence positions
// [2lo, 2hi): only a sum over a partition is a count, and one partial may
// have wrapped below zero. Either way the compiled plan *is* the hand-tuned
// machinery plus a cell read.
func (p *Plan) ExecuteRange(g *temporal.Graph, delta temporal.Timestamp, opts Options, lo, hi int) uint64 {
	var cells []uint64
	switch {
	case p.kind == PlanEdge:
		paths := higher.CountPath4Range(g, delta, opts, lo, hi)
		cells = paths[:]
	case p.tri:
		cells = engine.CountCategoryRange(g, delta, opts.Engine(), lo, hi, motif.CategoryTri).Tri[:]
	default:
		s4, counts := higher.CountStar4Range(g, delta, opts, lo, hi)
		switch p.spec.nodes {
		case MaxNodes:
			cells = s4[:]
		case 3:
			cells = counts.Star[:]
		default:
			cells = counts.Pair[:]
		}
	}
	var n uint64
	for _, c := range p.cells {
		n += cells[c]
	}
	return n
}

package approx

import (
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/query"
	"hare/internal/temporal"
)

// Kernel is one sampleable counting problem: a pivot-ID domain whose
// per-pivot tallies sum to the exact count, a per-pivot cost/variance
// proxy for stratum allocation, and the per-pivot evaluation itself. All
// methods must be pure (safe for concurrent use with per-worker scratch).
type Kernel interface {
	// Cells is the number of counter cells Eval fills (8 star patterns,
	// 48 path slots, 1 query total).
	Cells() int
	// Domain is the pivot-ID domain size on g (nodes or edges).
	Domain(g *temporal.Graph) int
	// Weight is the nonnegative allocation proxy for pivot id — a cheap
	// stand-in for the pivot's tally variance, typically a degree product.
	Weight(g *temporal.Graph, id int) float64
	// Eval writes pivot id's exact per-cell tally into out[:Cells()],
	// overwriting every cell. scratch is a per-worker fast.Scratch grown
	// to NumNodes.
	Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64)
}

// StarKernel samples 4-node stars by center node. Weight is d³, the
// all-triples count a center of temporal degree d can host: a proxy for the
// tally's variance, not for the evaluation's cost, which the star/pair sweep
// made linear in d.
type StarKernel struct{}

// Cells implements Kernel (the 8 direction-pattern star motifs).
func (StarKernel) Cells() int { return 8 }

// Domain implements Kernel: centers are nodes.
func (StarKernel) Domain(g *temporal.Graph) int { return g.NumNodes() }

// Weight implements Kernel.
func (StarKernel) Weight(g *temporal.Graph, id int) float64 {
	d := float64(g.Degree(temporal.NodeID(id)))
	return d * d * d
}

// Eval implements Kernel via the exact per-center counter the parallel
// star machinery schedules.
func (StarKernel) Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64) {
	s4, _ := higher.CountNode(g, temporal.NodeID(id), delta, scratch)
	for i := range s4 {
		out[i] = float64(s4[i])
	}
}

// PathKernel samples 4-node paths by structural-middle edge. Weight is
// d(src)·d(dst): a proxy for the tally's variance (a middle edge can host up
// to one path per pair of legs), not for the evaluation's cost, which the
// pair sweep made linear in the two windows.
type PathKernel struct{}

// Cells implements Kernel: the full 48-slot path counter (24 canonical
// labels plus unused slots, kept so cells line up with higher.PathCounter).
func (PathKernel) Cells() int { return 48 }

// Domain implements Kernel: middles are edges.
func (PathKernel) Domain(g *temporal.Graph) int { return g.NumEdges() }

// Weight implements Kernel.
func (PathKernel) Weight(g *temporal.Graph, id int) float64 {
	e := temporal.EdgeID(id)
	return float64(g.Degree(g.Src()[e])) * float64(g.Degree(g.Dst()[e]))
}

// Eval implements Kernel via the exact per-middle-edge counter.
func (PathKernel) Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64) {
	var pc higher.PathCounter
	higher.CountPathMiddle(g, temporal.EdgeID(id), delta, scratch, &pc)
	for i := range pc {
		out[i] = float64(pc[i])
	}
}

// PlanKernel samples a compiled query plan by its pivot family: center
// nodes for PlanCenter (weight d³), pivot-slot edges for PlanEdge (weight
// d(src)·d(dst)).
type PlanKernel struct{ Plan *query.Plan }

// Cells implements Kernel: one total per pivot.
func (PlanKernel) Cells() int { return 1 }

// Domain implements Kernel.
func (k PlanKernel) Domain(g *temporal.Graph) int { return k.Plan.PivotDomain(g) }

// Weight implements Kernel.
func (k PlanKernel) Weight(g *temporal.Graph, id int) float64 {
	if k.Plan.Kind() == query.PlanCenter {
		return StarKernel{}.Weight(g, id)
	}
	return PathKernel{}.Weight(g, id)
}

// Eval implements Kernel via the plan's exact per-pivot tally.
func (k PlanKernel) Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64) {
	out[0] = float64(k.Plan.PivotCount(g, delta, id, scratch))
}

package approx

import (
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/query"
	"hare/internal/temporal"
)

// Kernel is one sampleable counting problem: a pivot-ID domain whose
// per-pivot tallies sum to the exact count, and the per-pivot evaluation
// itself. All methods must be pure (safe for concurrent use with per-worker
// scratch). Every kernel pivots on edges, and NewPlan allocates its draws by
// the edges' degree products, d(src)·d(dst) (temporal.PivotWeight): a proxy
// for the tally's variance (a middle edge can host up to one path per pair
// of legs), not for the evaluation's cost, which the pair sweep made linear
// in the two windows. The node-pivot families are answered exactly (see
// Exact).
type Kernel interface {
	// Cells is the number of counter cells Eval fills (48 path slots, 1
	// query total).
	Cells() int
	// Domain is the pivot-ID domain size on g: its edge count.
	Domain(g *temporal.Graph) int
	// Eval writes pivot id's exact per-cell tally into out[:Cells()],
	// overwriting every cell. scratch is a per-worker fast.Scratch grown
	// to NumNodes.
	Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64)
}

// PathKernel samples 4-node paths by structural-middle edge.
type PathKernel struct{}

// Cells implements Kernel: the full 48-slot path counter (24 canonical
// labels plus unused slots, kept so cells line up with higher.PathCounter).
func (PathKernel) Cells() int { return 48 }

// Domain implements Kernel: middles are edges.
func (PathKernel) Domain(g *temporal.Graph) int { return g.NumEdges() }

// Eval implements Kernel via the exact per-middle-edge counter.
func (PathKernel) Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64) {
	var pc higher.PathCounter
	higher.CountPathMiddle(g, temporal.EdgeID(id), delta, scratch, &pc)
	for i := range pc {
		out[i] = float64(pc[i])
	}
}

// PlanKernel samples a compiled path plan (query.PlanEdge) by its
// pivot-slot edge. Center plans are never sampled: Query answers them
// exactly.
type PlanKernel struct{ Plan *query.Plan }

// Cells implements Kernel: one total per pivot.
func (PlanKernel) Cells() int { return 1 }

// Domain implements Kernel: pivots are edges.
func (PlanKernel) Domain(g *temporal.Graph) int { return g.NumEdges() }

// Eval implements Kernel via the plan's exact per-pivot tally.
func (k PlanKernel) Eval(g *temporal.Graph, delta temporal.Timestamp, id int, scratch *fast.Scratch, out []float64) {
	out[0] = float64(k.Plan.PivotCount(g, delta, id, scratch))
}

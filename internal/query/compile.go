package query

import (
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Options steers plan scheduling with the exact knobs of the hand-tuned
// counters (internal/higher): Workers, DegreeThreshold, ChunkSize. It is an
// alias, not a copy — a caller tuning CountStar4 and a compiled plan with
// one Options value gets identical scheduling in both.
type Options = higher.Options

// PlanKind is the pivot family a compiled plan iterates over.
type PlanKind int

const (
	// PlanCenter pivots on center nodes: the spec has a variable incident
	// to every edge (a 4-node or 3-node star, or a 2-node pair spec), and
	// the plan reads one cell of the per-center counters CountStar4Range
	// returns. The pivot IDs are node IDs, the range domain the incidence
	// positions.
	PlanCenter PlanKind = iota
	// PlanEdge pivots on graph edges bound to one spec edge, the other two
	// read from the pivot's endpoints by the pair sweep (4-node paths and
	// triangles). Pivot IDs and the range domain are both edge IDs.
	PlanEdge
)

// String names the pivot for responses and reports.
func (k PlanKind) String() string {
	if k == PlanCenter {
		return "center"
	}
	return "edge"
}

// legSweep describes an edge plan as the pair sweep (higher.CountLegPairs)
// sees it: one non-pivot edge f hangs off the pivot's source, the other, g,
// off its destination, and both far ends lie off the pivot pair. The count is
// one cell of the sweep's tallies.
type legSweep struct {
	order      higher.LegOrder // temporal order of (f, pivot, g), from the slots
	fOut, gOut bool            // f leaves the pivot's source; g leaves its destination
	same       bool            // f and g share their far end (triangle) or not (4-node path)
}

// Plan is a compiled counting plan. Plans are immutable and safe for
// concurrent use; obtain one from Compile. Both pivot families partition
// the count over a contiguous range domain (incidence positions or edges),
// so any plan is range-splittable for the scatter/gather tier: partials from
// a partition of [0, RangeDomain(g)) sum — exactly, in any order — to
// Execute's total.
type Plan struct {
	spec *Spec
	kind PlanKind

	// PlanCenter: the index of the plan's cell in the per-center counter the
	// spec's node count selects (see centerCount).
	cell int
	// PlanEdge: the plan's cell of the pair sweep's tallies.
	sweep legSweep
}

// Spec returns the plan's (canonicalized) spec.
func (p *Plan) Spec() *Spec { return p.spec }

// Kind returns the pivot family.
func (p *Plan) Kind() PlanKind { return p.kind }

// Compile lowers a spec to a counting plan. Every spec accepted by
// ParseSpec compiles, to one cell of a counter the repository already has.
// A spec with a center variable becomes a PlanCenter reading FAST-Star's
// counters (or the 4-node star complement of them); the rest — every 4-node
// path and every triangle — a PlanEdge reading the pair sweep.
func Compile(s *Spec) *Plan {
	p := &Plan{spec: s}
	if c, ok := s.center(); ok {
		p.kind = PlanCenter
		p.cell = centerCell(s, c)
		return p
	}
	// No center: the pivot shares a variable with both other edges, one at
	// each of its endpoints, and neither far end is a pivot endpoint.
	p.kind = PlanEdge
	pivot := pickPivot(s)
	pe := s.edges[pivot]
	var f, g int // slots of the legs at the pivot's source and destination
	for slot, e := range s.edges {
		switch {
		case slot == pivot:
		case e.Src == pe.Src || e.Dst == pe.Src:
			f = slot
		default:
			g = slot
		}
	}
	p.sweep = legSweep{
		order: higher.LegOrderOf(f, pivot, g),
		fOut:  s.edges[f].Src == pe.Src,
		gOut:  s.edges[g].Src == pe.Dst,
		same:  s.nodes == 3,
	}
	return p
}

// centerCell names the counter cell a spec with center variable c reads. A
// 4-node star's cell is its direction pattern relative to the center (the
// leaf assignment is forced by temporal order). A spec over at most three
// variables is one of the paper's 36 motifs: its own edges, read as an
// instance, name the label, and FAST-Star records each instance of a star
// label in one cell at its center, and of a pair label in two complementary
// cells, one per endpoint — so reading the first counts each pair once.
func centerCell(s *Spec, c int) int {
	if s.nodes == MaxNodes {
		var d [SpecEdges]motif.Dir
		for i, e := range s.edges {
			d[i] = motif.DirOf(e.Src == c)
		}
		return motif.PairIndex(d[0], d[1], d[2])
	}
	var es [SpecEdges]temporal.Edge
	for i, e := range s.edges {
		es[i] = temporal.Edge{From: temporal.NodeID(e.Src), To: temporal.NodeID(e.Dst), Time: temporal.Timestamp(i)}
	}
	// A valid spec is connected, so on two or three variables it is always
	// one of the 36: a pair, or (having a center) a star.
	label, _ := motif.Classify(es[0], es[1], es[2])
	if s.nodes == 2 {
		cells, _ := motif.PairCells(label)
		return cells[0]
	}
	cell, _ := motif.StarCellOf(label)
	return cell
}

// pickPivot selects the spec edge sharing a variable with the most other
// edges (ties to the lowest slot): the structural middle of a path, and the
// first edge of a triangle, in which every edge shares a variable with both
// others.
func pickPivot(s *Spec) int {
	best, bestScore := 0, -1
	for i, e := range s.edges {
		score := 0
		for j, o := range s.edges {
			if j != i && (o.Src == e.Src || o.Src == e.Dst || o.Dst == e.Src || o.Dst == e.Dst) {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

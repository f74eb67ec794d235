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
	// PlanCenter pivots on nodes and reads the per-node counters of the
	// paper's kernels over a range of incidence positions (engine.Sweep).
	// A spec with a variable incident to every edge (a 4-node or 3-node
	// star, or a 2-node pair spec) reads one cell of the per-center counters
	// CountStar4Range returns; a triangle spec reads its label's three cells
	// of FAST-Tri's owner-mode counter (engine.CountCategoryRange).
	PlanCenter PlanKind = iota
	// PlanEdge pivots on graph edges bound to the middle of a 4-node path:
	// the plan reads its label's cell of CountPath4Range's counter. The range
	// domain is the edge IDs.
	PlanEdge
)

// String names the pivot for responses and reports.
func (k PlanKind) String() string {
	if k == PlanCenter {
		return "center"
	}
	return "edge"
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

	// The cells of the counter the spec's shape selects (see ExecuteRange)
	// whose sum is the count: one cell of a star, pair or path counter, or a
	// triangle label's three isomorphic FAST-Tri cells.
	cells []int
	tri   bool
}

// Spec returns the plan's (canonicalized) spec.
func (p *Plan) Spec() *Spec { return p.spec }

// Kind returns the pivot family.
func (p *Plan) Kind() PlanKind { return p.kind }

// Compile lowers a spec to a counting plan. Every spec accepted by
// ParseSpec compiles, to cells of a counter the repository already has.
// Every spec over at most three variables is one of the paper's 36 motifs
// and, like a 4-node star, a PlanCenter reading the counters of a node-pivot
// kernel (FAST-Star, FAST-Tri, or the 4-node star complement); a 4-node path
// is a PlanEdge reading its label's cell of CountPath4Range's counter.
func Compile(s *Spec) *Plan {
	p := &Plan{spec: s}
	if s.nodes < MaxNodes {
		p.cells, p.tri = motifCells(s)
		return p
	}
	if c, ok := s.center(); ok {
		var d [SpecEdges]motif.Dir
		for i, e := range s.edges {
			d[i] = motif.DirOf(e.Src == c)
		}
		// The leaf assignment is forced by temporal order, so the direction
		// pattern relative to the center names the 4-node star.
		p.cells = []int{motif.PairIndex(d[0], d[1], d[2])}
		return p
	}
	// A 4-node path a–b–c–d: its middle b→c meets both other edges, the leg
	// f = a–b its source and the leg g = c–d its destination. Slots are
	// temporal ranks, so the spec's own edges name the label.
	mid := pickPivot(s)
	m := s.edges[mid]
	f, g := (mid+1)%SpecEdges, (mid+2)%SpecEdges
	if e := s.edges[f]; e.Src != m.Src && e.Dst != m.Src {
		f, g = g, f
	}
	label := higher.CanonicalPath(f, mid, g, s.edges[f].Dst == m.Src, true, s.edges[g].Src == m.Dst)
	p.kind, p.cells = PlanEdge, []int{int(label)}
	return p
}

// motifCells names the counter cells a spec over at most three variables
// reads. Such a spec is one of the paper's 36 motifs: its own edges, read as
// an instance, name the label. FAST-Star records each instance of a star
// label in one cell at its center, and of a pair label in two complementary
// cells, one per endpoint — so reading the first counts each pair once.
// FAST-Tri records each triangle once, at its owner, in whichever of the
// label's three isomorphic cells the owner's view gives: all three are read.
func motifCells(s *Spec) (cells []int, tri bool) {
	var es [SpecEdges]temporal.Edge
	for i, e := range s.edges {
		es[i] = temporal.Edge{From: temporal.NodeID(e.Src), To: temporal.NodeID(e.Dst), Time: temporal.Timestamp(i)}
	}
	// A valid spec is connected, so on two or three variables it is always
	// one of the 36.
	label, _ := motif.Classify(es[0], es[1], es[2])
	switch label.Category() {
	case motif.CategoryTri:
		c, _ := motif.TriCells(label)
		return c[:], true
	case motif.CategoryPair:
		c, _ := motif.PairCells(label)
		return c[:1], false
	}
	c, _ := motif.StarCellOf(label)
	return []int{c}, false
}

// pickPivot selects the spec edge sharing a variable with the most other
// edges (ties to the lowest slot): the structural middle of a 4-node path,
// the one edge that shares a variable with both others.
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

package query

import (
	"hare/internal/higher"
	"hare/internal/motif"
)

// Options steers plan scheduling with the exact knobs of the hand-tuned
// counters (internal/higher): Workers, DegreeThreshold, ChunkSize. It is an
// alias, not a copy — a caller tuning CountStar4 and a compiled plan with
// one Options value gets identical scheduling in both.
type Options = higher.Options

// PlanKind is the pivot family a compiled plan iterates over.
type PlanKind int

const (
	// PlanCenter pivots on center nodes: the spec is a 4-node star (one
	// variable incident to every edge), and the plan delegates to the
	// hand-tuned CountStar4Range machinery, reading one counter cell. The
	// range domain is node IDs.
	PlanCenter PlanKind = iota
	// PlanEdge pivots on graph edges bound to one spec edge, the other two
	// read from the pivot's endpoints: by the pair sweep for paths and
	// triangles, by a nested window scan otherwise. The range domain is edge
	// IDs.
	PlanEdge
)

// String names the pivot for responses and reports.
func (k PlanKind) String() string {
	if k == PlanCenter {
		return "center"
	}
	return "edge"
}

// step is one compiled enumeration level of a nested-scan plan: scan a pivot
// endpoint's chronological sequence, from the pivot edge on and within δ of
// it, for candidate graph edges filling spec edge slot.
type step struct {
	slot       int   // spec edge slot this step binds
	anchor     int   // pivot-endpoint variable whose Seq is scanned
	wantOut    bool  // candidate direction: true iff anchor is the slot's Src
	other      int   // variable at the candidate's far end
	otherBound bool  // far end already bound → equality filter; else binds it
	distinct   []int // bound variables the far end must differ from (injectivity)
}

// legSweep describes an edge plan the pair sweep (higher.CountLegPairs)
// answers: one non-pivot edge f hangs off the pivot's source, the other, g,
// off its destination, and both far ends lie off the pivot pair. The count is
// one cell of the sweep's tallies.
type legSweep struct {
	order      higher.LegOrder // temporal order of (f, pivot, g), from the slots
	fOut, gOut bool            // f leaves the pivot's source; g leaves its destination
	same       bool            // f and g share their far end (triangle) or not (4-node path)
}

// Plan is a compiled counting plan. Plans are immutable and safe for
// concurrent use; obtain one from Compile. Both pivot families partition
// the count over a contiguous ID domain (nodes or edges), so any plan is
// range-splittable for the scatter/gather tier: partials from a partition
// of [0, Domain(g)) sum — exactly, in any order — to Execute's total.
type Plan struct {
	spec *Spec
	kind PlanKind

	// PlanCenter: per-temporal-slot direction relative to the center.
	dirs [SpecEdges]motif.Dir

	// PlanEdge: the spec edge bound to the pivot graph edge, then how the
	// other two are counted — by the pair sweep where the shape is a leg at
	// each pivot endpoint (every 4-node path and every triangle), else by the
	// two enumeration levels of the nested scan, in binding order.
	pivotSlot int
	sweep     *legSweep
	steps     [SpecEdges - 1]step
}

// Spec returns the plan's (canonicalized) spec.
func (p *Plan) Spec() *Spec { return p.spec }

// Splittable reports whether the plan partitions its count over a
// contiguous pivot ID range (ExecuteRange partials over a partition of
// [0, Domain) sum to the total). Both current plan kinds do; the shard
// tier checks this and whole-routes a plan that does not, via rendezvous
// hashing, the way /v1/count is routed.
func (p *Plan) Splittable() bool { return true }

// Kind returns the pivot family.
func (p *Plan) Kind() PlanKind { return p.kind }

// Compile lowers a spec to a counting plan. Every spec accepted by
// ParseSpec compiles: a 4-node spec with a center variable becomes a
// PlanCenter delegating to the star machinery, everything else a PlanEdge.
//
// An edge plan's pivot shares a variable with both other edges, and a
// non-pivot edge is always viewed from a pivot endpoint — a triangle's
// closing edge included, which a binding-order scan would reach from the far
// node. What is left to decide is the shape, and the shape alone picks the
// counting routine: a leg at each endpoint, far ends off the pivot pair, is
// the pair sweep's; both legs on one endpoint, or a leg on the pivot pair
// (the 2-node and 3-node star/pair specs), is the nested scan's.
func Compile(s *Spec) *Plan {
	p := &Plan{spec: s}
	if c, ok := s.center(); ok && s.nodes == MaxNodes {
		p.kind = PlanCenter
		for i, e := range s.edges {
			if e.Src == c {
				p.dirs[i] = motif.Out
			} else {
				p.dirs[i] = motif.In
			}
		}
		return p
	}
	p.kind = PlanEdge
	p.pivotSlot = pickPivot(s)
	pe := s.edges[p.pivotSlot]
	bound := []int{pe.Src, pe.Dst}
	for level, slot := 0, 0; slot < SpecEdges; slot++ {
		if slot == p.pivotSlot {
			continue
		}
		e := s.edges[slot]
		st := step{slot: slot}
		switch {
		case e.Src == pe.Src || e.Src == pe.Dst:
			st.anchor, st.wantOut, st.other = e.Src, true, e.Dst
		case e.Dst == pe.Src || e.Dst == pe.Dst:
			st.anchor, st.wantOut, st.other = e.Dst, false, e.Src
		default:
			panic("query: spec edge off the pivot reached the compiler") // unreachable: see pickPivot
		}
		if contains(bound, st.other) {
			st.otherBound = true
		} else {
			st.distinct = append([]int(nil), bound...)
			bound = append(bound, st.other)
		}
		p.steps[level] = st
		level++
	}
	p.sweep = sweepOf(p)
	if p.sweep == nil && p.pivotSlot != 0 {
		panic("query: nested-scan plan not pivoted on its first edge") // unreachable: see pickPivot
	}
	return p
}

// sweepOf recognises the pair sweep's shape in a compiled edge plan: the two
// steps anchor at different pivot endpoints and neither far end is a pivot
// endpoint. It returns nil for every other shape.
func sweepOf(p *Plan) *legSweep {
	pe := p.spec.edges[p.pivotSlot]
	f, g := &p.steps[0], &p.steps[1]
	if f.anchor != pe.Src {
		f, g = g, f
	}
	onPivot := func(v int) bool { return v == pe.Src || v == pe.Dst }
	if f.anchor != pe.Src || g.anchor != pe.Dst || onPivot(f.other) || onPivot(g.other) {
		return nil
	}
	return &legSweep{
		order: higher.LegOrderOf(f.slot, p.pivotSlot, g.slot),
		fOut:  f.wantOut,
		gOut:  g.wantOut,
		same:  f.other == g.other,
	}
}

// pickPivot selects the spec edge sharing a variable with the most other
// edges (ties to the lowest slot): the structural middle of a path, and the
// first edge of everything else — in a triangle, a 3-node star or a 2-node
// spec every edge shares a variable with both others. Either way both other
// edges touch the pivot, so they are scanned from its endpoints and their δ
// windows are found from the pivot's own position; and a nested-scan plan's
// pivot is always the earliest edge of its instances.
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

func contains(vars []int, v int) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

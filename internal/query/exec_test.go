package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hare/internal/brute"
	"hare/internal/fast"
	"hare/internal/gen"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Corpus generators mirror internal/higher's conventions: uniform random
// multigraphs and hub-skewed graphs (node 0 a hub) so the light/heavy
// scheduling split is exercised on both sides.

func randomGraph(r *rand.Rand, nodes, edges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	return b.Build()
}

func hubGraph(r *rand.Rand, nodes, edges, hubEdges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges + hubEdges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	for i := 0; i < hubEdges; i++ {
		v := temporal.NodeID(1 + r.Intn(nodes-1))
		if r.Intn(2) == 0 {
			_ = b.AddEdge(0, v, r.Int63n(span))
		} else {
			_ = b.AddEdge(v, 0, r.Int63n(span))
		}
	}
	return b.Build()
}

// schedulingRegimes is the option matrix every exactness test runs under:
// the 1/2/4-worker ladder plus the degree-threshold extremes (which steer
// center plans and an edge plan's triangle correction).
var schedulingRegimes = []Options{
	{Workers: 1},
	{Workers: 2},
	{Workers: 4},
	{Workers: 4, DegreeThreshold: 1, ChunkSize: 3}, // everything heavy, tiny chunks
	{Workers: 4, DegreeThreshold: -1},              // heavy stage disabled
}

// bruteCount adapts a spec to the oracle's mirrored edge type.
func bruteCount(g *temporal.Graph, delta temporal.Timestamp, s *Spec) uint64 {
	var edges [SpecEdges]brute.SpecEdge
	for i, e := range s.Edges() {
		edges[i] = brute.SpecEdge{Src: e.Src, Dst: e.Dst}
	}
	return brute.CountSpec(g, delta, edges)
}

// starSpecText builds the 4-node star spec whose compiled plan must read
// Star4Counter cell (d1, d2, d3).
func starSpecText(d1, d2, d3 motif.Dir) string {
	leaves := [3]string{"x", "y", "z"}
	terms := make([]string, 0, 3)
	for i, d := range [3]motif.Dir{d1, d2, d3} {
		if d == motif.Out {
			terms = append(terms, "c->"+leaves[i])
		} else {
			terms = append(terms, leaves[i]+"->c")
		}
	}
	return strings.Join(terms, "; ")
}

// pathSpecText builds the 4-node path spec (nodes a-b-c-d, legs f = a-b,
// m = b-c, g = c-d) whose roles have the given temporal ranks and
// traversal directions (true = forward along a→b→c→d).
func pathSpecText(rankF, rankM, rankG int, fwdF, fwdM, fwdG bool) string {
	terms := make([]string, 3)
	place := func(rank int, term string) { terms[rank] = term }
	mk := func(fwd bool, from, to string) string {
		if fwd {
			return from + "->" + to
		}
		return to + "->" + from
	}
	place(rankF, mk(fwdF, "a", "b"))
	place(rankM, mk(fwdM, "b", "c"))
	place(rankG, mk(fwdG, "c", "d"))
	return strings.Join(terms, "; ")
}

// Every 4-node star spec must compile to a center plan whose count is
// bit-identical to the hand-tuned CountStar4's cell — at 1/2/4 workers and
// both threshold extremes — and the eight cells must exhaust the counter.
func TestCompiledStarMatchesCountStar4(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < 4; trial++ {
		g := hubGraph(r, 5+r.Intn(10), 50+r.Intn(120), 50+r.Intn(50), 1+int64(r.Intn(40)))
		delta := int64(1 + r.Intn(25))
		want := higher.CountStar4(g, delta, higher.Options{Workers: 1})
		var sum uint64
		for d1 := motif.In; d1 <= motif.Out; d1++ {
			for d2 := motif.In; d2 <= motif.Out; d2++ {
				for d3 := motif.In; d3 <= motif.Out; d3++ {
					s, err := ParseSpec(starSpecText(d1, d2, d3))
					if err != nil {
						t.Fatal(err)
					}
					p := Compile(s)
					if p.Kind() != PlanCenter {
						t.Fatalf("star spec %q compiled to %v, want center", s, p.Kind())
					}
					cell := want.At(d1, d2, d3)
					sum += cell
					for _, opts := range schedulingRegimes {
						if got := p.Execute(g, delta, opts); got != cell {
							t.Fatalf("spec %q opts %+v: count %d, want star cell (%v,%v,%v) = %d",
								s, opts, got, d1, d2, d3, cell)
						}
					}
					if got := bruteCount(g, delta, s); got != cell {
						t.Fatalf("spec %q: brute %d, want %d", s, got, cell)
					}
				}
			}
		}
		if sum != want.Total() {
			t.Fatalf("star cells sum %d, want total %d", sum, want.Total())
		}
	}
}

// All 48 raw path patterns: a pattern and its reversal must canonicalize to
// one spec text (one cache key per canonical path label), and the compiled
// count must be bit-identical to CountPath4's canonical cell across the
// scheduling regimes.
func TestCompiledPathMatchesCountPath4(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	g := hubGraph(r, 6+r.Intn(8), 60+r.Intn(80), 40+r.Intn(40), 30)
	delta := int64(5 + r.Intn(20))
	want := higher.CountPath4(g, delta, higher.Options{Workers: 1})

	specByLabel := map[higher.PathLabel]*Spec{}
	for _, ranks := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}} {
		for bits := 0; bits < 8; bits++ {
			fwdF, fwdM, fwdG := bits&4 != 0, bits&2 != 0, bits&1 != 0
			label := higher.CanonicalPath(ranks[0], ranks[1], ranks[2], fwdF, fwdM, fwdG)
			s, err := ParseSpec(pathSpecText(ranks[0], ranks[1], ranks[2], fwdF, fwdM, fwdG))
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := specByLabel[label]; ok {
				if prev.Canonical() != s.Canonical() {
					t.Fatalf("label %v maps to two canonical specs: %q and %q", label, prev, s)
				}
				continue
			}
			specByLabel[label] = s
		}
	}
	if len(specByLabel) != higher.NumPathMotifs {
		t.Fatalf("got %d canonical path specs, want %d", len(specByLabel), higher.NumPathMotifs)
	}
	var sum uint64
	for label, s := range specByLabel {
		p := Compile(s)
		if p.Kind() != PlanEdge {
			t.Fatalf("path spec %q compiled to %v, want edge", s, p.Kind())
		}
		cell := want.At(label)
		sum += cell
		for _, opts := range schedulingRegimes {
			if got := p.Execute(g, delta, opts); got != cell {
				t.Fatalf("spec %q (label %v) opts %+v: count %d, want %d", s, label, opts, got, cell)
			}
		}
	}
	if sum != want.Total() {
		t.Fatalf("path cells sum %d, want total %d", sum, want.Total())
	}
}

// Novel shapes the hand-tuned counters cannot serve — the temporal
// triangle, the cycle-closing 3-path, ping-pong multi-edges, 3-node stars —
// and every other spec over at most three variables must match the
// independent brute-force enumeration on both corpora at every scheduling
// regime, and their range partials must sum to the total. The last trial is
// a heavy multi-edge pair with legs at both ends, whose path-plan partials
// are cut between two of the pair's pivots: a path partial carries its
// range's triangles and the correction of its incidences, so one may wrap
// below zero, and the partials must still sum exactly.
func TestCompiledNovelShapesMatchBrute(t *testing.T) {
	shapes := []string{
		"a->b; b->c; c->a", // temporal triangle
		"a->b; b->c; a->c", // 3-path closed by a shortcut (cycle closure)
		"b->a; a->c; c->b", // triangle, mixed chronology
		"a->b; b->a; a->b", // 2-node ping-pong
		"a->b; a->b; b->a", // 2-node, repeated forward edge
		"a->b; a->c; b->a", // 3-node star with a return edge
		"a->b; c->b; b->a", // in-in-return
		"a->b; b->c; c->d", // 4-node path (edge pivot, cross-checked twice)
		"a->b; c->b; c->d", // 4-node path, middle reversed
	}
	var specs []*Spec
	for _, text := range shapes {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for _, s := range smallSpecs(t) {
		specs = append(specs, s)
	}
	r := rand.New(rand.NewSource(403))
	for trial := 0; trial < 5; trial++ {
		var g *temporal.Graph
		var pivots temporal.Seq // the heavy pair's edges, in the last trial
		switch {
		case trial == 4:
			g = heavyPairGraph(r)
			pivots = g.Between(0, 1)
		case trial%2 == 0:
			g = randomGraph(r, 4+r.Intn(10), 60+r.Intn(120), 1+int64(r.Intn(40)))
		default:
			g = hubGraph(r, 5+r.Intn(10), 40+r.Intn(80), 40+r.Intn(60), 1+int64(r.Intn(40)))
		}
		delta := int64(1 + r.Intn(25))
		for _, s := range specs {
			p := Compile(s)
			want := bruteCount(g, delta, s)
			for _, opts := range schedulingRegimes {
				if got := p.Execute(g, delta, opts); got != want {
					t.Fatalf("trial %d spec %q opts %+v: count %d, brute %d", trial, s, opts, got, want)
				}
			}
			// Partition the range domain three ways: partials must sum
			// exactly (the shard tier's scatter/gather contract).
			n := p.RangeDomain(g)
			lo, hi := n/3, 2*n/3
			if pivots.Len() > 0 && p.Kind() == PlanEdge {
				lo = int(pivots.ID[pivots.Len()/3]) // between two of the pair's pivots
			}
			opts := Options{Workers: 2}
			var sum uint64
			for _, cut := range [][2]int{{-3, lo}, {lo, hi}, {hi, n + 5}} {
				sum += p.ExecuteRange(g, delta, opts, cut[0], cut[1])
			}
			if sum != want {
				t.Fatalf("spec %q: range partials sum %d, want %d", s, sum, want)
			}
		}
	}
}

// heavyPairGraph is one node pair, 0 and 1, carrying a long run of
// multi-edges in both directions, several at each time, with legs at both
// ends to a few shared far ends: paths and triangles on every pivot.
func heavyPairGraph(r *rand.Rand) *temporal.Graph {
	b := temporal.NewBuilder(0)
	for i := 0; i < 150; i++ {
		t := int64(i / 3) // three pivots share each time
		if r.Intn(2) == 0 {
			_ = b.AddEdge(0, 1, t)
		} else {
			_ = b.AddEdge(1, 0, t)
		}
		for k := r.Intn(3); k > 0; k-- {
			u, v := temporal.NodeID(r.Intn(2)), temporal.NodeID(2+r.Intn(6))
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			_ = b.AddEdge(u, v, t+int64(r.Intn(3)))
		}
	}
	return b.Build()
}

// PivotCount is the per-pivot unit the sampler (internal/approx) evaluates
// one draw at a time: summed over every edge it must be Execute, for path
// plans of different role orders and directions.
func TestPivotCountSumsToExecute(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	g := hubGraph(r, 12, 120, 80, 30)
	scratch := fast.NewScratch()
	for _, text := range []string{
		"a->b; b->c; c->d", // legs before and after the middle
		"b->c; a->b; d->c", // middle first, a leg into each far end
		"c->d; b->a; b->c", // both legs before the middle
	} {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(s)
		if p.Kind() != PlanEdge {
			t.Fatalf("spec %q compiled to %v, want edge", s, p.Kind())
		}
		var sum uint64
		for id := 0; id < g.NumEdges(); id++ {
			sum += p.PivotCount(g, 15, id, scratch)
		}
		want := p.Execute(g, 15, Options{Workers: 2})
		if want == 0 || sum != want {
			t.Fatalf("spec %q: per-pivot sum %d, Execute %d (want equal and non-zero)", s, sum, want)
		}
	}
}

// Degenerate domains: empty ranges and graphs smaller than the spec.
func TestExecuteDegenerate(t *testing.T) {
	s, _ := ParseSpec("a->b; b->c; c->a")
	p := Compile(s)
	g := temporal.FromEdges([]temporal.Edge{{From: 0, To: 1, Time: 1}})
	for _, opts := range []Options{{Workers: 1}, {Workers: 4}} {
		if got := p.Execute(g, 10, opts); got != 0 {
			t.Fatalf("1-edge graph: count %d, want 0", got)
		}
		if got := p.ExecuteRange(g, 10, opts, 5, 2); got != 0 {
			t.Fatalf("inverted range: count %d, want 0", got)
		}
	}
	star, _ := ParseSpec("a->b; a->c; a->d")
	ps := Compile(star)
	if got := ps.ExecuteRange(g, 10, Options{Workers: 2}, 3, 1); got != 0 {
		t.Fatalf("inverted center range: count %d, want 0", got)
	}
	path, _ := ParseSpec("a->b; b->c; c->d")
	if got := Compile(path).ExecuteRange(g, 10, Options{Workers: 2}, 3, 1); got != 0 {
		t.Fatalf("inverted edge range: count %d, want 0", got)
	}
}

// A worked, hand-checkable instance: one triangle within δ, none outside.
func TestTriangleKnown(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 1, To: 2, Time: 2},
		{From: 2, To: 0, Time: 3},
		{From: 0, To: 2, Time: 9}, // wrong direction for the cycle
	})
	s, _ := ParseSpec("a->b; b->c; c->a")
	p := Compile(s)
	if got := p.Execute(g, 10, Options{Workers: 1}); got != 1 {
		t.Fatalf("triangle count = %d, want 1", got)
	}
	if got := p.Execute(g, 1, Options{Workers: 1}); got != 0 {
		t.Fatalf("δ=1 triangle count = %d, want 0", got)
	}
}

// smallSpecs returns the canonical specs over at most three variables with
// the paper's label for each: a spec on ≤ 3 nodes *is* one of the 36 motifs,
// and motif.Classify names it from the spec's own edges read as an instance.
func smallSpecs(t *testing.T) map[motif.Label]*Spec {
	t.Helper()
	terms := []string{"a->b", "b->a", "a->c", "c->a", "b->c", "c->b"}
	byLabel := map[motif.Label]*Spec{}
	for _, t1 := range terms {
		for _, t2 := range terms {
			for _, t3 := range terms {
				s, err := ParseSpec(t1 + "; " + t2 + "; " + t3)
				if err != nil {
					t.Fatal(err) // three edges over three variables always connect
				}
				var es [SpecEdges]temporal.Edge
				for i, e := range s.Edges() {
					es[i] = temporal.Edge{From: temporal.NodeID(e.Src), To: temporal.NodeID(e.Dst), Time: int64(i)}
				}
				label, ok := motif.Classify(es[0], es[1], es[2])
				if !ok {
					t.Fatalf("spec %q is not a 2- or 3-node motif", s)
				}
				if prev, seen := byLabel[label]; seen && prev.Canonical() != s.Canonical() {
					t.Fatalf("label %v names two specs: %q and %q", label, prev, s)
				}
				byLabel[label] = s
			}
		}
	}
	if len(byLabel) != len(motif.AllLabels()) {
		t.Fatalf("%d specs over ≤ 3 variables, want the %d motifs", len(byLabel), len(motif.AllLabels()))
	}
	return byLabel
}

// The 36 motifs are specs, so the paper's kernel is a free oracle for the
// executor: every spec over at most three variables is a center plan and
// must count exactly its cell of the 6×6 matrix that Algorithm 1 and
// FAST-Tri build sequentially (fast.Count) — the eight triangle specs from
// the scheduled FAST-Tri's three cells, the 28 star and pair specs from one
// cell of the star/pair sweep — with no brute force, so on inputs brute
// force cannot reach.
func TestSmallSpecsMatchMotifMatrix(t *testing.T) {
	specs := smallSpecs(t)
	college, err := gen.DatasetByName("collegemsg")
	if err != nil {
		t.Fatal(err)
	}
	cg, err := gen.Generate(college)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(405))
	for _, in := range []struct {
		name  string
		g     *temporal.Graph
		delta temporal.Timestamp
	}{
		{"collegemsg", cg, 600},
		{"hub", hubGraph(r, 60, 1500, 2500, 4000), 90},
	} {
		want := fast.Count(in.g, in.delta).ToMatrix()
		var tri uint64
		for label, s := range specs {
			p := Compile(s)
			if p.Kind() != PlanCenter {
				t.Fatalf("%s: spec %q (%v) compiled to %v", in.name, s, label, p.Kind())
			}
			for _, workers := range []int{1, 2} {
				if got := p.Execute(in.g, in.delta, Options{Workers: workers}); got != want.At(label) {
					t.Fatalf("%s: spec %q workers=%d counts %d, %v = %d", in.name, s, workers, got, label, want.At(label))
				}
			}
			if label.Category() == motif.CategoryTri {
				tri += want.At(label)
			}
		}
		if tri == 0 {
			t.Fatalf("%s: no triangles, the test is vacuous", in.name)
		}
	}
}

func TestPlanKindString(t *testing.T) {
	if PlanCenter.String() != "center" || PlanEdge.String() != "edge" {
		t.Fatalf("PlanKind strings: %q, %q", PlanCenter, PlanEdge)
	}
}

// Compile is deterministic and the plan reports its spec back.
func TestCompileAccessors(t *testing.T) {
	for _, text := range []string{"a->b; a->c; a->d", "a->b; b->c; c->a"} {
		s, _ := ParseSpec(text)
		p := Compile(s)
		if p.Spec() != s {
			t.Fatalf("Plan.Spec() lost the spec for %q", text)
		}
		if fmt.Sprint(p.Kind()) == "" {
			t.Fatalf("empty kind for %q", text)
		}
	}
}

package fast

import (
	"math"
	"math/rand"
	"testing"

	"hare/internal/brute"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// fig1Graph is the paper's Fig. 1 toy graph (a=0,...,e=4).
func fig1Graph() *temporal.Graph {
	return temporal.FromEdges([]temporal.Edge{
		{From: 4, To: 3, Time: 1},
		{From: 0, To: 2, Time: 4},
		{From: 4, To: 2, Time: 6},
		{From: 0, To: 2, Time: 8},
		{From: 3, To: 0, Time: 9},
		{From: 3, To: 2, Time: 10},
		{From: 0, To: 1, Time: 11},
		{From: 3, To: 4, Time: 14},
		{From: 0, To: 2, Time: 15},
		{From: 2, To: 3, Time: 17},
		{From: 4, To: 3, Time: 18},
		{From: 3, To: 4, Time: 21},
	})
}

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

func TestFig1WalkThroughStarPair(t *testing.T) {
	g := fig1Graph()
	counts := &motif.Counts{}
	s := NewScratch()
	// Center node a=0 with δ=10s, as worked through in Sec. IV-A.3: the
	// paper's narrative records Star[III,o,o,in], Star[III,o,o,o],
	// Star[II,o,in,o], Star[II,o,o,o] — one instance each.
	CountStarPairNode(g, 0, 10, counts, s)
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Star[III,o,o,in]", counts.Star.At(motif.StarIII, motif.Out, motif.Out, motif.In), 1},
		{"Star[III,o,o,o]", counts.Star.At(motif.StarIII, motif.Out, motif.Out, motif.Out), 1},
		{"Star[II,o,in,o]", counts.Star.At(motif.StarII, motif.Out, motif.In, motif.Out), 1},
		{"Star[II,o,o,o]", counts.Star.At(motif.StarII, motif.Out, motif.Out, motif.Out), 1},
	}
	var total uint64
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
		total += c.got
	}
	if st := counts.Star.Total(); st != total {
		t.Errorf("star total for center a = %d, want %d (no extra motifs)", st, total)
	}
	if pt := counts.Pair.Total(); pt != 0 {
		t.Errorf("pair total for center a = %d, want 0", pt)
	}
}

func TestFig1WalkThroughTriangle(t *testing.T) {
	g := fig1Graph()
	var tri motif.TriCounter
	// Center node e=4 with δ=10s, as worked through in Sec. IV-B.2:
	// Tri[III,o,o,o] += 1, then one Triangle-II hit for the instance
	// <(e,c,6s),(d,c,10s),(d,e,14s)>. The paper's text writes that second
	// cell as Tri[II,o,in,o], but that contradicts the paper itself: the
	// introduction names this instance M46, its dir_k definition makes
	// (d->c) "in" w.r.t. v=c, and its Fig. 8 lists Tri[II,o,in,in] under
	// M46 (Tri[II,o,in,o] belongs to the cyclic M26). We follow Fig. 8.
	CountTriNode(g, 4, 10, &tri, false)
	if got := tri.At(motif.TriIII, motif.Out, motif.Out, motif.Out); got != 1 {
		t.Errorf("Tri[III,o,o,o] = %d, want 1", got)
	}
	if got := tri.At(motif.TriII, motif.Out, motif.In, motif.In); got != 1 {
		t.Errorf("Tri[II,o,in,in] = %d, want 1", got)
	}
	if tri.Total() != 2 {
		t.Errorf("tri total for center e = %d, want 2", tri.Total())
	}
}

func TestFig1IntroInstances(t *testing.T) {
	// The introduction names three instances at δ=10s: one M63, one M46,
	// one M65. Verify they appear in the full count.
	g := fig1Graph()
	m := Count(g, 10).ToMatrix()
	if m.At(motif.Label{Row: 6, Col: 3}) < 1 {
		t.Error("M63 missing")
	}
	if m.At(motif.Label{Row: 4, Col: 6}) < 1 {
		t.Error("M46 missing")
	}
	if m.At(motif.Label{Row: 6, Col: 5}) < 1 {
		t.Error("M65 missing")
	}
}

func TestFig1MatchesBrute(t *testing.T) {
	g := fig1Graph()
	for _, delta := range []int64{0, 1, 5, 10, 20, 1000} {
		want := brute.Count(g, delta)
		got := Count(g, delta).ToMatrix()
		if !got.Equal(&want) {
			t.Errorf("δ=%d: FAST differs from brute at %v", delta, got.Diff(&want))
		}
	}
}

func TestRandomGraphsMatchBrute(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nodes := 2 + r.Intn(12)
		edges := 1 + r.Intn(120)
		span := int64(1 + r.Intn(60))
		delta := int64(r.Intn(40))
		g := randomGraph(r, nodes, edges, span)
		want := brute.Count(g, delta)
		got := Count(g, delta).ToMatrix()
		if !got.Equal(&want) {
			t.Fatalf("trial %d (n=%d e=%d span=%d δ=%d): diff %v\nfast:\n%v\nbrute:\n%v",
				trial, nodes, edges, span, delta, got.Diff(&want), &got, &want)
		}
	}
}

// Heavy timestamp collisions exercise the EdgeID tie-breaking rules.
func TestTieHeavyGraphsMatchBrute(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 2+r.Intn(8), 1+r.Intn(100), 1+int64(r.Intn(4)))
		delta := int64(r.Intn(5))
		want := brute.Count(g, delta)
		got := Count(g, delta).ToMatrix()
		if !got.Equal(&want) {
			t.Fatalf("trial %d: diff %v", trial, got.Diff(&want))
		}
	}
}

// allCenters sums the all-triangles-at-u view (dedup == false) over every
// center: what the paper's HARE computes, each instance once per vertex.
func allCenters(g *temporal.Graph, delta temporal.Timestamp) motif.TriCounter {
	var tri motif.TriCounter
	for u := 0; u < g.NumNodes(); u++ {
		CountTriNode(g, temporal.NodeID(u), delta, &tri, false)
	}
	return tri
}

func TestRecountEqualsDedup(t *testing.T) {
	// Recounting at all three vertices sees every instance exactly three
	// times; the owner rule sees it once.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 3+r.Intn(10), 1+r.Intn(150), 40)
		delta := int64(1 + r.Intn(30))
		a := Count(g, delta).ToMatrix()
		recount := motif.Counts{Tri: allCenters(g, delta)}
		b := recount.ToMatrix()
		for _, l := range motif.TriLabels() {
			if b.At(l) != 3*a.At(l) {
				t.Fatalf("trial %d: %v recounted %d times, owned %d", trial, l, b.At(l), a.At(l))
			}
		}
	}
}

func TestPairCellsComplementaryEqual(t *testing.T) {
	// Each pair instance is seen once from each endpoint, so complementary
	// counter cells must be exactly equal.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 2+r.Intn(6), 1+r.Intn(120), 30)
		c := CountStarPair(g, int64(1+r.Intn(20)))
		for _, l := range motif.PairLabels() {
			cells, _ := motif.PairCells(l)
			if c.Pair[cells[0]] != c.Pair[cells[1]] {
				t.Fatalf("trial %d: %v cells unequal: %d vs %d",
					trial, l, c.Pair[cells[0]], c.Pair[cells[1]])
			}
		}
	}
}

func TestTriangleCellsEqualAcrossTypes(t *testing.T) {
	// Summed over all centers without dedup, every instance lands once in
	// each of its three isomorphic cells, so the cells of a label are equal.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 3+r.Intn(8), 1+r.Intn(150), 30)
		tri := allCenters(g, int64(1+r.Intn(25)))
		for _, l := range motif.TriLabels() {
			cells, _ := motif.TriCells(l)
			a, b, cc := tri[cells[0]], tri[cells[1]], tri[cells[2]]
			if a != b || b != cc {
				t.Fatalf("trial %d: %v cells unequal: %d/%d/%d", trial, l, a, b, cc)
			}
		}
	}
}

func TestCountRangePartition(t *testing.T) {
	// Splitting the first-edge range across arbitrary cut points must give
	// the same counts as the whole-node call (the intra-node invariant).
	r := rand.New(rand.NewSource(21))
	g := randomGraph(r, 6, 300, 50)
	delta := int64(15)
	var hub temporal.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(temporal.NodeID(u)) > g.Degree(hub) {
			hub = temporal.NodeID(u)
		}
	}
	whole := &motif.Counts{}
	CountStarPairNode(g, hub, delta, whole, NewScratch())
	CountTriNode(g, hub, delta, &whole.Tri, false)

	su := g.Seq(hub)
	for trial := 0; trial < 10; trial++ {
		cut1 := r.Intn(su.Len() + 1)
		cut2 := cut1 + r.Intn(su.Len()+1-cut1)
		parts := &motif.Counts{}
		s := NewScratch()
		for _, rg := range [][2]int{{0, cut1}, {cut1, cut2}, {cut2, su.Len()}} {
			CountStarPairRange(su, delta, parts, s, rg[0], rg[1])
			CountTriRange(g, hub, delta, &parts.Tri, false, rg[0], rg[1])
		}
		if parts.Star != whole.Star || parts.Pair != whole.Pair || parts.Tri != whole.Tri {
			t.Fatalf("trial %d: partition (0,%d,%d) differs from whole", trial, cut1, cut2)
		}
	}
}

type starPairCase struct {
	name  string
	g     *temporal.Graph
	delta temporal.Timestamp
}

// starPairCorpus lists the inputs the per-center star/pair routines are held
// to Algorithm 1 on: random, hub-skewed, bursty, duplicate timestamps, δ = 0,
// and δ so large that t − δ would overflow.
func starPairCorpus() []starPairCase {
	r := rand.New(rand.NewSource(31))
	hub := func() *temporal.Graph {
		b := temporal.NewBuilder(400)
		for i := 0; i < 400; i++ {
			u, v := temporal.NodeID(r.Intn(3)), temporal.NodeID(3+r.Intn(40))
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			_ = b.AddEdge(u, v, r.Int63n(300))
		}
		return b.Build()
	}
	// Bursts of 1 to 8 edges among 6 nodes, each burst spanning up to 2δ
	// and separated from the next by more than δ: most windows are empty
	// or hold one edge, so the sweep jumps between bursts, and a cut lands
	// as often in a gap as inside a burst.
	bursty := func(delta temporal.Timestamp) *temporal.Graph {
		b := temporal.NewBuilder(600)
		var end temporal.Timestamp // the last time so far
		for burst := 0; burst < 100; burst++ {
			now := end + delta + 1 + r.Int63n(2*delta)
			for k := 1 + r.Intn(8); k > 0; k-- {
				u, v := temporal.NodeID(r.Intn(6)), temporal.NodeID(r.Intn(5))
				if v >= u {
					v++
				}
				t := now + r.Int63n(2*delta)
				end = max(end, t)
				_ = b.AddEdge(u, v, t)
			}
		}
		return b.Build()
	}
	return []starPairCase{
		{"random", randomGraph(r, 12, 300, 200), 30},
		{"hub-skewed", hub(), 40},
		{"bursty", bursty(20), 20},
		{"duplicate-timestamp", randomGraph(r, 6, 200, 4), 1},
		{"delta-0", randomGraph(r, 6, 200, 20), 0},
		{"huge-delta", randomGraph(r, 8, 150, 1000), math.MaxInt64},
		{"delta-2^62", randomGraph(r, 8, 150, 1000), 1 << 62},
	}
}

// CountAfter over each edge's forward δ-window and CountBefore over each
// backward one must each find every star and pair triple at a center once,
// by its first or its last edge: the per-edge routines the stream tier runs
// sum to Algorithm 1 at every center.
func TestCountBeforeAfterSumToCountStarPair(t *testing.T) {
	s := NewScratch()
	for _, tc := range starPairCorpus() {
		g, delta := tc.g, tc.delta
		var triples uint64
		for u := 0; u < g.NumNodes(); u++ {
			var want, before, after motif.Counts
			CountStarPairNode(g, temporal.NodeID(u), delta, &want, s)
			su := g.Seq(temporal.NodeID(u))
			lo := 0
			for j := 0; j < su.Len(); j++ {
				for su.Time[j]-su.Time[lo] > delta {
					lo++
				}
				CountBefore(su.Slice(lo, j), su.Other[j], su.Out[j], &before, s)
				CountAfter(su.Slice(j+1, su.Len()), su.Time[j], su.Other[j], su.Out[j], delta, &after, s)
			}
			for side, got := range map[string]*motif.Counts{"CountBefore": &before, "CountAfter": &after} {
				if got.Star != want.Star || got.Pair != want.Pair {
					t.Fatalf("%s center %d: %s sums differ from CountStarPairNode", tc.name, u, side)
				}
			}
			triples += want.Star.Total() + want.Pair.Total()
		}
		if triples == 0 {
			t.Fatalf("%s: no star or pair triples, the corpus checks nothing", tc.name)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	empty := temporal.FromEdges(nil)
	if got := func() uint64 { m := Count(empty, 100).ToMatrix(); return m.Total() }(); got != 0 {
		t.Fatalf("empty graph counted %d motifs", got)
	}
	two := temporal.FromEdges([]temporal.Edge{{From: 0, To: 1, Time: 0}, {From: 1, To: 0, Time: 1}})
	if got := func() uint64 { m := Count(two, 100).ToMatrix(); return m.Total() }(); got != 0 {
		t.Fatalf("2-edge graph counted %d motifs", got)
	}
	// δ = 0 with distinct timestamps: nothing fits in a zero window.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 0}, {From: 0, To: 1, Time: 1}, {From: 0, To: 1, Time: 2},
	})
	if got := func() uint64 { m := Count(g, 0).ToMatrix(); return m.Total() }(); got != 0 {
		t.Fatalf("δ=0 counted %d motifs", got)
	}
	// δ = 0 with identical timestamps: the triple is a valid instance.
	tie := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 5}, {From: 0, To: 1, Time: 5}, {From: 0, To: 1, Time: 5},
	})
	m := Count(tie, 0).ToMatrix()
	if m.Total() != 1 || m.At(motif.Label{Row: 5, Col: 5}) != 1 {
		t.Fatalf("tied-δ=0 matrix wrong: %v", &m)
	}
}

func TestNodeProfile(t *testing.T) {
	g := fig1Graph()
	// Node a=0: from the Fig. 1 walk-through it centers 4 star instances
	// and no pair; it participates in triangles (e.g. the M25 instance).
	p := NodeProfile(g, 0, 10)
	if got := p.CategoryTotal(motif.CategoryStar); got != 4 {
		t.Errorf("star profile = %d, want 4", got)
	}
	if got := p.CategoryTotal(motif.CategoryPair); got != 0 {
		t.Errorf("pair profile = %d, want 0", got)
	}
	if got := p.At(motif.Label{Row: 2, Col: 5}); got != 1 {
		t.Errorf("M25 participation = %d, want 1", got)
	}
	// Node e=4 participates in the M65 pair instance (d<->e) — the profile
	// must report it once even though only one side's counter is filled.
	pe := NodeProfile(g, 4, 10)
	if got := pe.At(motif.Label{Row: 6, Col: 5}); got != 1 {
		t.Errorf("e's M65 participation = %d, want 1", got)
	}
}

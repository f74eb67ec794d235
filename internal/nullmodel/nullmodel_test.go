package nullmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hare/internal/motif"
	"hare/internal/temporal"
)

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

func TestTimeShufflePreservesStructure(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 20, 300, 1000)
	s, err := Sample(g, TimeShuffle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", s.NumEdges(), g.NumEdges())
	}
	// Multiset of (From,To) pairs unchanged; multiset of timestamps unchanged.
	pairCount := func(gr *temporal.Graph) map[[2]temporal.NodeID]int {
		m := map[[2]temporal.NodeID]int{}
		for _, e := range gr.Edges() {
			m[[2]temporal.NodeID{e.From, e.To}]++
		}
		return m
	}
	timeList := func(gr *temporal.Graph) []temporal.Timestamp {
		ts := make([]temporal.Timestamp, 0, gr.NumEdges())
		for _, e := range gr.Edges() {
			ts = append(ts, e.Time)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	pg, ps := pairCount(g), pairCount(s)
	if len(pg) != len(ps) {
		t.Fatal("pair multiset changed")
	}
	for k, v := range pg {
		if ps[k] != v {
			t.Fatalf("pair %v count changed: %d vs %d", k, ps[k], v)
		}
	}
	tg, ts2 := timeList(g), timeList(s)
	for i := range tg {
		if tg[i] != ts2[i] {
			t.Fatal("timestamp multiset changed")
		}
	}
}

func TestDegreeRewirePreservesDegrees(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := randomGraph(r, 15, 400, 500)
	s, err := Sample(g, DegreeRewire, 9)
	if err != nil {
		t.Fatal(err)
	}
	outDeg := func(gr *temporal.Graph) []int {
		d := make([]int, gr.NumNodes())
		for _, e := range gr.Edges() {
			d[e.From]++
		}
		return d
	}
	inDeg := func(gr *temporal.Graph) []int {
		d := make([]int, gr.NumNodes())
		for _, e := range gr.Edges() {
			d[e.To]++
		}
		return d
	}
	og, os := outDeg(g), outDeg(s)
	ig, is := inDeg(g), inDeg(s)
	for u := range og {
		if og[u] != os[u] {
			t.Fatalf("out-degree of %d changed: %d vs %d", u, os[u], og[u])
		}
		if ig[u] != is[u] {
			t.Fatalf("in-degree of %d changed: %d vs %d", u, is[u], ig[u])
		}
	}
	if s.SelfLoopsDropped() != 0 {
		t.Fatal("rewire created self-loops")
	}
	// Timestamps per position unchanged.
	ge := g.Edges()
	for i, e := range s.Edges() {
		if e.Time != ge[i].Time {
			t.Fatal("rewire changed a timestamp")
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 10, 200, 300)
	for _, model := range []Model{TimeShuffle, DegreeRewire} {
		a, _ := Sample(g, model, 42)
		b, _ := Sample(g, model, 42)
		ae, be := a.Edges(), b.Edges()
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("%v: sample not deterministic", model)
			}
		}
		c, _ := Sample(g, model, 43)
		same := true
		ce := c.Edges()
		for i := range ae {
			if ae[i] != ce[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: different seeds gave identical samples", model)
		}
	}
	if _, err := Sample(g, Model(99), 1); err == nil {
		t.Fatal("want error for unknown model")
	}
}

func TestModelString(t *testing.T) {
	if TimeShuffle.String() != "time-shuffle" || DegreeRewire.String() != "degree-rewire" {
		t.Fatal("model strings wrong")
	}
}

// Planted temporal bursts must be significant against the time-shuffle null:
// the ping-pong pair pattern is injected at far above chance rate.
func TestSignificanceDetectsPlantedPattern(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	b := temporal.NewBuilder(0)
	// Background noise over a long horizon.
	for i := 0; i < 2000; i++ {
		u := temporal.NodeID(r.Intn(50))
		v := temporal.NodeID(r.Intn(50))
		if u == v {
			v = (v + 1) % 50
		}
		_ = b.AddEdge(u, v, r.Int63n(2_000_000))
	}
	// Planted tight ping-pong conversations.
	for i := 0; i < 60; i++ {
		u := temporal.NodeID(50 + r.Intn(10))
		v := temporal.NodeID(60 + r.Intn(10))
		t0 := r.Int63n(2_000_000)
		_ = b.AddEdge(u, v, t0)
		_ = b.AddEdge(v, u, t0+5)
		_ = b.AddEdge(u, v, t0+11)
	}
	g := b.Build()
	rep, err := Significance(g, 60, Options{Model: TimeShuffle, Trials: 15, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m65 := motif.Label{Row: 6, Col: 5}
	if z := rep.ZScore(m65); !(z > 3 || math.IsInf(z, 1)) {
		t.Fatalf("planted M65 z-score = %.2f, want > 3", z)
	}
	top := rep.TopSignificant(5)
	found := false
	for _, lc := range top {
		if lc.Label == m65 {
			found = true
		}
	}
	if !found {
		t.Fatalf("M65 not among top significant motifs: %v", top)
	}
}

func TestZScoreEdgeCases(t *testing.T) {
	rep := &Report{}
	l := motif.Label{Row: 1, Col: 1}
	// zero std, zero diff
	if z := rep.ZScore(l); z != 0 {
		t.Fatalf("z = %f, want 0", z)
	}
	rep.Real.Set(l, 10)
	if z := rep.ZScore(l); !math.IsInf(z, 1) {
		t.Fatalf("z = %f, want +Inf", z)
	}
	rep.Mean[0][0] = 20
	if z := rep.ZScore(l); !math.IsInf(z, -1) {
		t.Fatalf("z = %f, want -Inf", z)
	}
	rep.Std[0][0] = 5
	if z := rep.ZScore(l); z != -2 {
		t.Fatalf("z = %f, want -2", z)
	}
}

func TestReportAccessors(t *testing.T) {
	rep := &Report{}
	l := motif.Label{Row: 3, Col: 4}
	rep.Mean[2][3] = 7.5
	rep.Std[2][3] = 1.5
	if rep.MeanAt(l) != 7.5 || rep.StdAt(l) != 1.5 {
		t.Fatal("accessors wrong")
	}
	if got := rep.TopSignificant(100); len(got) != 36 {
		t.Fatalf("TopSignificant(100) len = %d", len(got))
	}
}

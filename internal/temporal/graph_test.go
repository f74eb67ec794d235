package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildToy(t *testing.T) *Graph {
	t.Helper()
	// The paper's Fig. 1 graph: nodes a=0, b=1, c=2, d=3, e=4.
	edges := []Edge{
		{4, 3, 1},  // e->d 1s
		{0, 2, 4},  // a->c 4s
		{4, 2, 6},  // e->c 6s
		{0, 2, 8},  // a->c 8s
		{3, 0, 9},  // d->a 9s
		{3, 2, 10}, // d->c 10s
		{0, 1, 11}, // a->b 11s
		{3, 4, 14}, // d->e 14s
		{0, 2, 15}, // a->c 15s
		{2, 3, 17}, // c->d 17s
		{4, 3, 18}, // e->d 18s
		{3, 4, 21}, // d->e 21s
	}
	return FromEdges(edges)
}

func TestBuildToyGraph(t *testing.T) {
	g := buildToy(t)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	min, max, ok := g.TimeSpan()
	if !ok || min != 1 || max != 21 {
		t.Fatalf("TimeSpan = (%d,%d,%v), want (1,21,true)", min, max, ok)
	}
}

func TestSeqMatchesPaperExample(t *testing.T) {
	g := buildToy(t)
	// Paper: S_a = <(4s,c,o),(8s,c,o),(9s,d,in),(11s,b,o),(15s,c,o)>.
	sa := g.Seq(0)
	want := []struct {
		time  Timestamp
		other NodeID
		out   bool
	}{
		{4, 2, true}, {8, 2, true}, {9, 3, false}, {11, 1, true}, {15, 2, true},
	}
	if sa.Len() != len(want) {
		t.Fatalf("len(S_a) = %d, want %d", sa.Len(), len(want))
	}
	for i, w := range want {
		h := sa.At(i)
		if h.Time != w.time || h.Other != w.other || h.Out != w.out {
			t.Errorf("S_a[%d] = (%d,%d,%v), want (%d,%d,%v)", i, h.Time, h.Other, h.Out, w.time, w.other, w.out)
		}
	}
	// Paper: S_e = <(1s,d,o),(6s,c,o),(14s,d,in),(18s,d,o),(21s,d,in)>.
	se := g.Seq(4)
	wantE := []struct {
		time  Timestamp
		other NodeID
		out   bool
	}{
		{1, 3, true}, {6, 2, true}, {14, 3, false}, {18, 3, true}, {21, 3, false},
	}
	if se.Len() != len(wantE) {
		t.Fatalf("len(S_e) = %d, want %d", se.Len(), len(wantE))
	}
	for i, w := range wantE {
		h := se.At(i)
		if h.Time != w.time || h.Other != w.other || h.Out != w.out {
			t.Errorf("S_e[%d] = (%d,%d,%v), want (%d,%d,%v)", i, h.Time, h.Other, h.Out, w.time, w.other, w.out)
		}
	}
}

func TestBetween(t *testing.T) {
	g := buildToy(t)
	// E(c,d) = {(d->c,10s), (c->d,17s)}; relative to c: in then out.
	cd := g.Between(2, 3)
	if cd.Len() != 2 {
		t.Fatalf("len(E(c,d)) = %d, want 2", cd.Len())
	}
	if cd.Time[0] != 10 || cd.Out[0] {
		t.Errorf("E(c,d)[0] = (%d, out=%v), want (10, in)", cd.Time[0], cd.Out[0])
	}
	if cd.Time[1] != 17 || !cd.Out[1] {
		t.Errorf("E(c,d)[1] = (%d, out=%v), want (17, out)", cd.Time[1], cd.Out[1])
	}
	// Symmetric view from d flips directions.
	dc := g.Between(3, 2)
	if dc.Len() != 2 || !dc.Out[0] || dc.Out[1] {
		t.Errorf("E(d,c) directions wrong: %+v", dc)
	}
	if g.Between(0, 4).Len() != 0 {
		t.Errorf("E(a,e) should be empty")
	}
	if g.Between(400, 4).Len() != 0 {
		t.Errorf("out-of-range node should yield an empty view")
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1, 6); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumEdges() != 1 || g.SelfLoopsDropped() != 1 {
		t.Fatalf("edges=%d loops=%d, want 1/1", g.NumEdges(), g.SelfLoopsDropped())
	}
}

func TestNegativeNodeRejected(t *testing.T) {
	b := NewBuilder(1)
	if err := b.AddEdge(-1, 2, 0); err == nil {
		t.Fatal("want error for negative node id")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(nil)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if _, _, ok := g.TimeSpan(); ok {
		t.Fatal("empty graph should have no time span")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStableTieOrdering(t *testing.T) {
	// Three edges share a timestamp: EdgeIDs must preserve insertion order.
	edges := []Edge{{0, 1, 5}, {1, 2, 5}, {2, 0, 5}, {0, 2, 3}}
	g := FromEdges(edges)
	got := g.Edges()
	if got[0].Time != 3 {
		t.Fatalf("first edge time = %d, want 3", got[0].Time)
	}
	want := []Edge{{0, 1, 5}, {1, 2, 5}, {2, 0, 5}}
	for i, w := range want {
		if got[i+1] != w {
			t.Errorf("edge %d = %v, want %v (stable tie order)", i+1, got[i+1], w)
		}
	}
}

func randomGraph(r *rand.Rand, nodes, edges int, span Timestamp) *Graph {
	b := NewBuilder(edges)
	for i := 0; i < edges; i++ {
		u := NodeID(r.Intn(nodes))
		v := NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % NodeID(nodes)
		}
		_ = b.AddEdge(u, v, Timestamp(r.Int63n(int64(span))))
	}
	return b.Build()
}

func TestValidateRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(r, 2+r.Intn(20), r.Intn(200), 50)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDegreeSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(30), 1+r.Intn(300), 100)
		sum := 0
		for u := 0; u < g.NumNodes(); u++ {
			sum += g.Degree(NodeID(u))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweenSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(15), 1+r.Intn(150), 60)
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			for w := NodeID(0); int(w) < g.NumNodes(); w++ {
				a, b := g.Between(v, w), g.Between(w, v)
				if a.Len() != b.Len() {
					return false
				}
				for i := 0; i < a.Len(); i++ {
					if a.ID[i] != b.ID[i] || a.Out[i] == b.Out[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Incidence inverts the layout of the incident index: walking the nodes in
// ID order, position p of S_u's span is (u, p − start), nodes without edges
// hold no position, and the end of the index is (NumNodes, 0).
func TestIncidenceLocatesPositions(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	b := NewBuilder(0)
	for i := 0; i < 60; i++ {
		_ = b.AddEdge(NodeID(2*r.Intn(10)), NodeID(2*r.Intn(10)+1), Timestamp(i))
	}
	_ = b.AddEdge(30, 31, 60) // nodes 20-29 stay edgeless
	for _, g := range []*Graph{b.Build(), FromEdges(nil)} {
		if g.NumIncidences() != 2*g.NumEdges() {
			t.Fatalf("NumIncidences %d, want 2·%d", g.NumIncidences(), g.NumEdges())
		}
		p := 0
		for u := 0; u < g.NumNodes(); u++ {
			for off := 0; off < g.Degree(NodeID(u)); off++ {
				if gu, goff := g.Incidence(p); gu != NodeID(u) || goff != off {
					t.Fatalf("Incidence(%d) = (%d, %d), want (%d, %d)", p, gu, goff, u, off)
				}
				p++
			}
		}
		if u, off := g.Incidence(p); p != g.NumIncidences() || u != NodeID(g.NumNodes()) || off != 0 {
			t.Fatalf("Incidence(%d) = (%d, %d) at the end of %d positions", p, u, off, g.NumIncidences())
		}
	}
}

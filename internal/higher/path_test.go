package higher

import (
	"math/rand"
	"testing"

	"hare/internal/fast"
	"hare/internal/temporal"
)

// brutePaths enumerates 4-node path instances directly from ordered edge
// triples, classifying from first principles (incidence analysis), sharing
// only the canonical-label definition with the counting algorithm.
func brutePaths(g *temporal.Graph, delta temporal.Timestamp) PathCounter {
	var out PathCounter
	edges := g.Edges()
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			if edges[j].Time-edges[i].Time > delta {
				break
			}
			for k := j + 1; k < len(edges); k++ {
				if edges[k].Time-edges[i].Time > delta {
					break
				}
				trio := [3]temporal.Edge{edges[i], edges[j], edges[k]}
				ids := [3]temporal.EdgeID{temporal.EdgeID(i), temporal.EdgeID(j), temporal.EdgeID(k)}
				if l, ok := classifyPath(trio, ids); ok {
					out[l]++
				}
			}
		}
	}
	return out
}

// classifyPath decides whether three edges form a 4-node path and returns
// the canonical label.
func classifyPath(es [3]temporal.Edge, ids [3]temporal.EdgeID) (PathLabel, bool) {
	nodes := map[temporal.NodeID]int{}
	for _, e := range es {
		if e.From == e.To {
			return 0, false
		}
		nodes[e.From]++
		nodes[e.To]++
	}
	if len(nodes) != 4 {
		return 0, false
	}
	// Find the structural middle: the edge sharing a node with both others.
	shares := func(a, b temporal.Edge) bool {
		return a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To
	}
	midIdx := -1
	for m := 0; m < 3; m++ {
		o1, o2 := (m+1)%3, (m+2)%3
		if shares(es[m], es[o1]) && shares(es[m], es[o2]) && !shares(es[o1], es[o2]) {
			if midIdx != -1 {
				return 0, false // ambiguous: not a simple path (e.g. star)
			}
			midIdx = m
		}
	}
	if midIdx == -1 {
		return 0, false
	}
	m := es[midIdx]
	b, c := m.From, m.To // traversal a -> b -> c -> d with m stored as b->c
	var fIdx, gIdx int
	o1, o2 := (midIdx+1)%3, (midIdx+2)%3
	if es[o1].From == b || es[o1].To == b {
		fIdx, gIdx = o1, o2
	} else {
		fIdx, gIdx = o2, o1
	}
	f, gE := es[fIdx], es[gIdx]
	if !(f.From == b || f.To == b) || !(gE.From == c || gE.To == c) {
		return 0, false
	}
	rank := func(idx int) int {
		r := 0
		for _, other := range []int{0, 1, 2} {
			if other != idx && ids[other] < ids[idx] {
				r++
			}
		}
		return r
	}
	fwdF := f.To == b    // a -> b
	fwdG := gE.From == c // c -> d
	return CanonicalPath(rank(fIdx), rank(midIdx), rank(gIdx), fwdF, true, fwdG), true
}

func TestPathTaxonomy(t *testing.T) {
	labels := AllPathLabels()
	if len(labels) != NumPathMotifs {
		t.Fatalf("canonical labels = %d, want %d", len(labels), NumPathMotifs)
	}
	seen := map[string]bool{}
	for _, l := range labels {
		s := l.String()
		if seen[s] {
			t.Fatalf("duplicate label string %q", s)
		}
		seen[s] = true
		if canonicalOf(l) != l {
			t.Fatalf("label %v not a fixed point of canonicalisation", l)
		}
	}
}

func TestCanonicalPathReversalInvariance(t *testing.T) {
	// A pattern and its reversal must share a label.
	for rf := 0; rf < 3; rf++ {
		for rm := 0; rm < 3; rm++ {
			for rg := 0; rg < 3; rg++ {
				if rf == rm || rm == rg || rf == rg {
					continue
				}
				for bits := 0; bits < 8; bits++ {
					fF, fM, fG := bits&4 != 0, bits&2 != 0, bits&1 != 0
					a := CanonicalPath(rf, rm, rg, fF, fM, fG)
					b := CanonicalPath(rg, rm, rf, !fG, !fM, !fF)
					if a != b {
						t.Fatalf("reversal broke canonical form: %v vs %v", a, b)
					}
				}
			}
		}
	}
}

func TestKnownPath(t *testing.T) {
	// a=0 -> b=1 -> c=2 -> d=3 strictly in time order, all forward.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 1, To: 2, Time: 2},
		{From: 2, To: 3, Time: 3},
	})
	c := CountPaths(g, 10)
	if c.Total() != 1 {
		t.Fatalf("total = %d, want 1", c.Total())
	}
	want := CanonicalPath(0, 1, 2, true, true, true)
	if c.At(want) != 1 {
		t.Fatalf("expected label %v missing", want)
	}
	if got := CountPaths(g, 1); got.Total() != 0 {
		t.Fatalf("δ=1 counted %d", got.Total())
	}
}

func TestPathExcludesOtherShapes(t *testing.T) {
	// Star (three distinct leaves) must not count as a path.
	star := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 0, To: 2, Time: 2}, {From: 0, To: 3, Time: 3},
	})
	if c := CountPaths(star, 10); c.Total() != 0 {
		t.Fatalf("star counted as path: %d", c.Total())
	}
	// Triangle must not count.
	tri := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 0, Time: 3},
	})
	if c := CountPaths(tri, 10); c.Total() != 0 {
		t.Fatalf("triangle counted as path: %d", c.Total())
	}
}

func TestPathsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 35; trial++ {
		g := randomGraph(r, 4+r.Intn(10), 1+r.Intn(120), 1+int64(r.Intn(40)))
		delta := int64(r.Intn(25))
		want := brutePaths(g, delta)
		got := CountPaths(g, delta)
		if got != want {
			t.Fatalf("trial %d δ=%d: got total %d want %d", trial, delta, got.Total(), want.Total())
		}
	}
}

func TestPathsTieHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 5+r.Intn(5), 1+r.Intn(80), 1+int64(r.Intn(3)))
		delta := int64(r.Intn(4))
		want := brutePaths(g, delta)
		got := CountPaths(g, delta)
		if got != want {
			t.Fatalf("trial %d: got %d want %d", trial, got.Total(), want.Total())
		}
	}
}

// CountPathMiddle is the per-edge unit samplers (internal/approx) evaluate
// one draw at a time: summed over every edge it must be CountPaths.
func TestCountPathMiddleSumsToCountPaths(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 4+r.Intn(10), 1+r.Intn(120), 1+int64(r.Intn(40)))
		delta := int64(r.Intn(25))
		var got PathCounter
		scratch := fast.GetScratch(g.NumNodes())
		for id := 0; id < g.NumEdges(); id++ {
			CountPathMiddle(g, temporal.EdgeID(id), delta, scratch, &got)
		}
		fast.PutScratch(scratch)
		if want := CountPaths(g, delta); got != want {
			t.Fatalf("trial %d δ=%d: per-edge sum %d, CountPaths %d", trial, delta, got.Total(), want.Total())
		}
	}
}

// CountPathCell is CountPathMiddle read at one label, from one role order:
// for every pivot and every canonical label the two must agree.
func TestCountPathCellIsCountPathMiddlesCell(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 4+r.Intn(10), 1+r.Intn(120), 1+int64(r.Intn(40)))
		delta := int64(r.Intn(25))
		scratch := fast.GetScratch(g.NumNodes())
		for id := 0; id < g.NumEdges(); id++ {
			var want PathCounter
			CountPathMiddle(g, temporal.EdgeID(id), delta, scratch, &want)
			for _, l := range AllPathLabels() {
				if got := CountPathCell(g, temporal.EdgeID(id), delta, l, scratch); got != want.At(l) {
					t.Fatalf("trial %d pivot %d label %v: cell %d, CountPathMiddle %d", trial, id, l, got, want.At(l))
				}
			}
		}
		fast.PutScratch(scratch)
	}
}

func TestPathCounterHelpers(t *testing.T) {
	var a, b PathCounter
	l := AllPathLabels()[0]
	a[l] = 2
	b[l] = 3
	a.Add(&b)
	if a.At(l) != 5 || a.Total() != 5 {
		t.Fatal("Add/At/Total wrong")
	}
	ls := a.Labels()
	if len(ls) != 1 || ls[0].Label != l || ls[0].Count != 5 {
		t.Fatalf("Labels = %v", ls)
	}
}

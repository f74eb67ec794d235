package temporal

import (
	"math/rand"
	"slices"
	"testing"
)

// graphsEqual asserts a and b are bit-identical: every column, every index,
// every counter. This is the loader/build equivalence contract — EdgeIDs,
// relabel assignment, and index layouts must match exactly, not just the
// logical edge multiset.
func graphsEqual(t *testing.T, ctx string, a, b *Graph) {
	t.Helper()
	if a.numNodes != b.numNodes {
		t.Fatalf("%s: numNodes %d != %d", ctx, a.numNodes, b.numNodes)
	}
	if a.selfLoops != b.selfLoops {
		t.Fatalf("%s: selfLoops %d != %d", ctx, a.selfLoops, b.selfLoops)
	}
	if !slices.Equal(a.src, b.src) || !slices.Equal(a.dst, b.dst) || !slices.Equal(a.ts, b.ts) {
		t.Fatalf("%s: edge columns differ", ctx)
	}
	if !slices.Equal(a.incOff, b.incOff) || !slices.Equal(a.incID, b.incID) ||
		!slices.Equal(a.incTime, b.incTime) || !slices.Equal(a.incOther, b.incOther) ||
		!slices.Equal(a.incOut, b.incOut) {
		t.Fatalf("%s: incident index differs", ctx)
	}
	if !slices.Equal(a.nbrOff, b.nbrOff) || !slices.Equal(a.nbrKey, b.nbrKey) ||
		!slices.Equal(a.grpOff, b.grpOff) || !slices.Equal(a.grpID, b.grpID) ||
		!slices.Equal(a.grpTime, b.grpTime) || !slices.Equal(a.grpOther, b.grpOther) ||
		!slices.Equal(a.grpOut, b.grpOut) {
		t.Fatalf("%s: grouped index differs", ctx)
	}
}

// randomEdges draws m edges over n nodes with ts collisions (small time
// range) and a few self-loops, the shapes that stress stable ordering.
func randomEdges(rng *rand.Rand, n, m, tspan int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if rng.Intn(20) == 0 {
			v = u // self-loop
		}
		edges[i] = Edge{From: u, To: v, Time: Timestamp(rng.Intn(tspan))}
	}
	return edges
}

func hubEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		u := NodeID(0) // hub
		if rng.Intn(4) == 0 {
			u = NodeID(rng.Intn(n))
		}
		edges[i] = Edge{From: u, To: NodeID(rng.Intn(n)), Time: Timestamp(rng.Intn(50))}
	}
	return edges
}

func TestBuildParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		edges []Edge
	}{
		{"empty", nil},
		{"single", []Edge{{0, 1, 5}}},
		{"selfloops-only", []Edge{{3, 3, 1}, {2, 2, 2}}},
		{"small", randomEdges(rng, 10, 40, 5)},
		{"uniform", randomEdges(rng, 200, 20000, 100)},
		{"ties", randomEdges(rng, 50, 20000, 3)},
		{"hub", hubEdges(rng, 300, 20000)},
	}
	for _, tc := range cases {
		want := FromEdges(tc.edges)
		// FromEdges runs the same core: hold it to references sharing no
		// code with it.
		checkCSRInvariants(t, want, tc.edges)
		checkGroupedIndex(t, tc.name, want)
		for _, w := range []int{1, 2, 3, 8} {
			b := NewBuilder(len(tc.edges))
			for _, e := range tc.edges {
				_ = b.AddEdge(e.From, e.To, e.Time)
			}
			got := buildColumns(b.src, b.dst, b.ts, b.numNodes(), b.selfLoops, w)
			graphsEqual(t, tc.name, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
		}
	}
}

// TestBuildColumnsParallelForced drives the build core directly so
// buildColumns' worker cap cannot hide its concurrent stages on small
// inputs.
func TestBuildColumnsParallelForced(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(300)
		var src, dst []NodeID
		var ts []Timestamp
		var edges []Edge
		maxNode := NodeID(-1)
		b := NewBuilder(m)
		for i := 0; i < m; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				v = (v + 1) % NodeID(n) // keep columns self-loop free, as the loader does
				if u == v {
					continue
				}
			}
			tt := Timestamp(rng.Intn(7))
			src, dst, ts = append(src, u), append(dst, v), append(ts, tt)
			edges = append(edges, Edge{From: u, To: v, Time: tt})
			maxNode = max(maxNode, u, v)
			_ = b.AddEdge(u, v, tt)
		}
		numNodes := 0
		if len(ts) > 0 {
			numNodes = int(maxNode) + 1
		}
		want := b.Build()
		checkCSRInvariants(t, want, edges)
		checkGroupedIndex(t, "forced Build", want)
		for _, w := range []int{1, 2, 5} {
			s2 := slices.Clone(src)
			d2 := slices.Clone(dst)
			t2 := slices.Clone(ts)
			got := buildColumnsParallel(s2, d2, t2, numNodes, 0, w)
			graphsEqual(t, "forced", want, got)
		}
	}
}

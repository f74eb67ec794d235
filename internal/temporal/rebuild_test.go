package temporal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// graphsIdentical compares every observable surface of two graphs: columns,
// incident sequences, grouped per-pair views, and metadata.
func graphsIdentical(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() ||
		a.SelfLoopsDropped() != b.SelfLoopsDropped() {
		t.Fatalf("shape mismatch: (%d,%d,%d) vs (%d,%d,%d)",
			a.NumNodes(), a.NumEdges(), a.SelfLoopsDropped(),
			b.NumNodes(), b.NumEdges(), b.SelfLoopsDropped())
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.Edge(EdgeID(i)) != b.Edge(EdgeID(i)) {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edge(EdgeID(i)), b.Edge(EdgeID(i)))
		}
	}
	for u := 0; u < a.NumNodes(); u++ {
		sa, sb := a.Seq(NodeID(u)), b.Seq(NodeID(u))
		if sa.Len() != sb.Len() {
			t.Fatalf("S_%d length differs: %d vs %d", u, sa.Len(), sb.Len())
		}
		for i := 0; i < sa.Len(); i++ {
			if sa.At(i) != sb.At(i) || sa.ID[i] != sb.ID[i] {
				t.Fatalf("S_%d[%d] differs", u, i)
			}
		}
		na, nb := a.Neighbors(NodeID(u)), b.Neighbors(NodeID(u))
		if len(na) != len(nb) {
			t.Fatalf("neighbors of %d differ in count", u)
		}
		for i, w := range na {
			if nb[i] != w {
				t.Fatalf("neighbors of %d differ at %d", u, i)
			}
			ea, eb := a.Between(NodeID(u), w), b.Between(NodeID(u), w)
			if ea.Len() != eb.Len() {
				t.Fatalf("E(%d,%d) length differs", u, w)
			}
			for i := 0; i < ea.Len(); i++ {
				if ea.At(i) != eb.At(i) || ea.ID[i] != eb.ID[i] {
					t.Fatalf("E(%d,%d)[%d] differs", u, w, i)
				}
			}
		}
	}
}

func randomEdgeSlice(r *rand.Rand, nodes, edges int, span int64, selfLoopProb float64) []Edge {
	out := make([]Edge, edges)
	for i := range out {
		u := NodeID(r.Intn(nodes))
		v := NodeID(r.Intn(nodes))
		if r.Float64() < selfLoopProb {
			v = u
		}
		out[i] = Edge{From: u, To: v, Time: r.Int63n(span)}
	}
	return out
}

// edgeColumns splits edges into the src/dst/ts columns RebuildColumns reads.
func edgeColumns(edges []Edge) (src, dst []NodeID, ts []Timestamp) {
	src, dst, ts = make([]NodeID, len(edges)), make([]NodeID, len(edges)), make([]Timestamp, len(edges))
	for i, e := range edges {
		src[i], dst[i], ts[i] = e.From, e.To, e.Time
	}
	return src, dst, ts
}

// rebuild is rb.RebuildColumns on the columns of edges.
func rebuild(rb *Rebuilder, edges []Edge) *Graph {
	return rb.RebuildColumns(edgeColumns(edges))
}

// A reused Rebuilder must produce graphs bit-identical to FromEdges, across
// rebuilds of different sizes, self-loop mixes, and timestamp tie densities.
func TestRebuilderMatchesFromEdges(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var rb Rebuilder
	for trial := 0; trial < 30; trial++ {
		nodes := 2 + r.Intn(30)
		count := r.Intn(400)
		span := 1 + int64(r.Intn(50)) // dense ties stress the stable sort
		edges := randomEdgeSlice(r, nodes, count, span, 0.05)
		want := FromEdges(edges)
		src, dst, ts := edgeColumns(edges)
		got := rb.RebuildColumns(src, dst, ts)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: rebuilt graph invalid: %v", trial, err)
		}
		if s, d, tm := edgeColumns(edges); !slices.Equal(src, s) || !slices.Equal(dst, d) || !slices.Equal(ts, tm) {
			t.Fatalf("trial %d: RebuildColumns modified its input", trial)
		}
		graphsIdentical(t, got, want)
		// Both run the same core: hold it to references sharing no code
		// with it.
		checkCSRInvariants(t, got, edges)
		checkGroupedIndex(t, fmt.Sprintf("trial %d", trial), got)
	}
}

// The scratch graph's lazy Edges cache must be invalidated by each rebuild.
func TestRebuilderResetsEdgeCache(t *testing.T) {
	var rb Rebuilder
	g := rebuild(&rb, []Edge{{From: 0, To: 1, Time: 5}})
	if es := g.Edges(); len(es) != 1 || es[0].Time != 5 {
		t.Fatalf("first rebuild edges = %v", g.Edges())
	}
	g = rebuild(&rb, []Edge{{From: 2, To: 3, Time: 9}, {From: 3, To: 2, Time: 1}})
	es := g.Edges()
	if len(es) != 2 || es[0] != (Edge{From: 3, To: 2, Time: 1}) {
		t.Fatalf("stale edge cache after rebuild: %v", es)
	}
}

// RebuildColumns must mirror FromEdges' degenerate-input semantics exactly.
func TestRebuilderDegenerateInputs(t *testing.T) {
	var rb Rebuilder
	cases := [][]Edge{
		nil,
		{{From: 1, To: 1, Time: 3}}, // only a self-loop
		{{From: -1, To: 2, Time: 0}, {From: 0, To: 1, Time: 1}}, // negative id dropped
	}
	for i, edges := range cases {
		want := FromEdges(edges)
		got := rebuild(&rb, edges)
		if err := got.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		graphsIdentical(t, got, want)
	}
}

// Steady-state rebuilds of same-shaped inputs must not allocate new columns:
// the per-sample cost of an ensemble is the rebuild work, not fresh graphs.
func TestRebuilderSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	src, dst, ts := edgeColumns(randomEdgeSlice(r, 50, 4000, 600, 0))
	var rb Rebuilder
	rb.RebuildColumns(src, dst, ts) // warm up capacity growth
	avg := testing.AllocsPerRun(5, func() {
		rb.RebuildColumns(src, dst, ts)
	})
	// A handful of fixed allocations (the atomic cache reset) is tolerated;
	// the columns and indexes themselves must be reused.
	if avg > 4 {
		t.Fatalf("steady-state rebuild allocates %.1f times, want O(1)", avg)
	}
}

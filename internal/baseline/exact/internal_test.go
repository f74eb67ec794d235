package exact

import (
	"math/rand"
	"sort"
	"testing"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// starSweeper must be reusable across centers, including degenerate ones
// (a short sequence between two busy centers must not leak state).
func TestStarSweeperReuseAcrossCenters(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, 8, 120, 40)
	delta := int64(15)

	fresh := func(u temporal.NodeID) [24]uint64 {
		s := newStarSweeper()
		s.sweep(g.Seq(u), delta)
		return s.accum
	}
	reused := newStarSweeper()
	for u := 0; u < g.NumNodes(); u++ {
		reused.sweep(g.Seq(temporal.NodeID(u)), delta)
		if reused.accum != fresh(temporal.NodeID(u)) {
			t.Fatalf("center %d: reused sweeper differs from fresh sweeper", u)
		}
	}
}

// A center with fewer than three edges must produce zero counts even right
// after a busy center.
func TestStarSweeperShortSequence(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		// Node 0 is busy; node 5 has one edge.
		{From: 0, To: 1, Time: 1}, {From: 0, To: 2, Time: 2}, {From: 0, To: 1, Time: 3},
		{From: 0, To: 3, Time: 4}, {From: 5, To: 6, Time: 5},
	})
	s := newStarSweeper()
	s.sweep(g.Seq(0), 100)
	busy := s.accum
	var total uint64
	for _, v := range busy {
		total += v
	}
	if total == 0 {
		t.Fatal("busy center should have star counts")
	}
	s.sweep(g.Seq(5), 100)
	for i, v := range s.accum {
		if v != 0 {
			t.Fatalf("short sequence produced accum[%d]=%d", i, v)
		}
	}
}

func TestForEachTriangle(t *testing.T) {
	// K4 on nodes 0..3 with one timestamped edge per pair: 4 triangles.
	var edges []temporal.Edge
	tm := temporal.Timestamp(0)
	for a := temporal.NodeID(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			tm++
			edges = append(edges, temporal.Edge{From: a, To: b, Time: tm})
		}
	}
	g := temporal.FromEdges(edges)
	adj := staticAdj(g)
	var got [][3]temporal.NodeID
	forEachTriangle(adj, func(a, b, c temporal.NodeID) {
		if !(a < b && b < c) {
			t.Fatalf("triangle (%d,%d,%d) not ordered", a, b, c)
		}
		got = append(got, [3]temporal.NodeID{a, b, c})
	})
	if len(got) != 4 {
		t.Fatalf("found %d triangles in K4, want 4", len(got))
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		if got[i][1] != got[j][1] {
			return got[i][1] < got[j][1]
		}
		return got[i][2] < got[j][2]
	})
	want := [][3]temporal.NodeID{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("triangle %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestForEachTriangleMultiEdgesCountOnce(t *testing.T) {
	// Parallel temporal edges between the same pair must not duplicate the
	// static triangle.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 0, Time: 2}, {From: 0, To: 1, Time: 3},
		{From: 1, To: 2, Time: 4}, {From: 2, To: 0, Time: 5},
	})
	n := 0
	forEachTriangle(staticAdj(g), func(a, b, c temporal.NodeID) { n++ })
	if n != 1 {
		t.Fatalf("found %d static triangles, want 1", n)
	}
}

func TestTriClassLabelTable(t *testing.T) {
	valid := 0
	for x := 0; x < numTriClasses; x++ {
		for y := 0; y < numTriClasses; y++ {
			for z := 0; z < numTriClasses; z++ {
				l := triClassLabel[(x*numTriClasses+y)*numTriClasses+z]
				if !l.Valid() {
					continue
				}
				valid++
				if l.Category() != motif.CategoryTri {
					t.Fatalf("class triple (%d,%d,%d) mapped to %v", x, y, z, l)
				}
			}
		}
	}
	// Three pair choices for the first class slot share their pair with one
	// other class: valid triples = pairs of distinct pair-assignments:
	// 3! orders × 2^3 directions = 48.
	if valid != 48 {
		t.Fatalf("class table has %d valid triples, want 48", valid)
	}
}

// CountParallel's slabs and boundary windows are Graph.TimeSlice's
// half-open [lo, hi) time ranges.
func TestExtractRange(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 10}, {From: 1, To: 2, Time: 20}, {From: 2, To: 3, Time: 30},
	})
	sub := g.TimeSlice(15, 30)
	if sub.NumEdges() != 1 || sub.Edges()[0].Time != 20 {
		t.Fatalf("TimeSlice wrong: %v", sub.Edges())
	}
	if g.TimeSlice(100, 200).NumEdges() != 0 {
		t.Fatal("empty range should be empty")
	}
	if g.TimeSlice(0, 100).NumEdges() != 3 {
		t.Fatal("full range should keep everything")
	}
}

func TestPairStageNeighborIteration(t *testing.T) {
	// CountPairs visits each unordered pair once, from its lower endpoint,
	// via the graph's sorted neighbor keys.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 0, Time: 2}, {From: 0, To: 2, Time: 3},
	})
	var higher []temporal.NodeID
	for _, w := range g.Neighbors(0) {
		if w > 0 {
			higher = append(higher, w)
		}
	}
	if len(higher) != 2 {
		t.Fatalf("node 0 has %d higher neighbors, want 2", len(higher))
	}
	if g.Between(0, 1).Len() != 2 || g.Between(0, 2).Len() != 1 {
		t.Fatalf("pair sequence lengths wrong: %d/%d", g.Between(0, 1).Len(), g.Between(0, 2).Len())
	}
	// From node 1's perspective only node 0 is adjacent, and it is lower.
	for _, w := range g.Neighbors(1) {
		if w > 1 {
			t.Fatalf("node 1 should see no higher-ID neighbors, got %d", w)
		}
	}
}

package temporal

import (
	"math/rand"
	"testing"
)

func TestTimeSlice(t *testing.T) {
	g := FromEdges([]Edge{
		{From: 0, To: 1, Time: 10}, {From: 1, To: 2, Time: 20},
		{From: 2, To: 0, Time: 30}, {From: 0, To: 2, Time: 40},
	})
	s := g.TimeSlice(15, 40)
	if s.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", s.NumEdges())
	}
	if s.Edges()[0].Time != 20 || s.Edges()[1].Time != 30 {
		t.Fatalf("wrong slice: %v", s.Edges())
	}
	if g.TimeSlice(100, 200).NumEdges() != 0 {
		t.Fatal("out-of-range slice should be empty")
	}
	full := g.TimeSlice(0, 1000)
	if full.NumEdges() != g.NumEdges() {
		t.Fatal("full slice lost edges")
	}
}

func TestTimeSlicePreservesTieOrder(t *testing.T) {
	g := FromEdges([]Edge{
		{From: 0, To: 1, Time: 5}, {From: 1, To: 2, Time: 5}, {From: 2, To: 0, Time: 5},
	})
	se := g.TimeSlice(5, 6).Edges()
	for i, e := range g.Edges() {
		if se[i] != e {
			t.Fatalf("tie order changed at %d", i)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges([]Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2},
		{From: 2, To: 3, Time: 3}, {From: 0, To: 3, Time: 4},
	})
	s := g.InducedSubgraph([]NodeID{0, 1, 2})
	if s.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (0-1 and 1-2)", s.NumEdges())
	}
	if s.Degree(3) != 0 {
		t.Fatal("excluded node has edges")
	}
	if g.InducedSubgraph(nil).NumEdges() != 0 {
		t.Fatal("empty node set should give empty graph")
	}
}

func TestFilterMinDegree(t *testing.T) {
	// Node 0 has degree 3; nodes 1,2,3 have degree 1 each... plus 1-2 edge.
	g := FromEdges([]Edge{
		{From: 0, To: 1, Time: 1}, {From: 0, To: 2, Time: 2},
		{From: 0, To: 3, Time: 3}, {From: 1, To: 2, Time: 4},
	})
	s := g.FilterMinDegree(2)
	// Qualifying nodes: 0 (deg 3), 1 (deg 2), 2 (deg 2); edges among them:
	// 0-1, 0-2, 1-2.
	if s.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", s.NumEdges())
	}
	if s.Degree(3) != 0 {
		t.Fatal("degree-1 node survived")
	}
	if g.FilterMinDegree(100).NumEdges() != 0 {
		t.Fatal("impossible threshold should empty the graph")
	}
}

func TestEgoNetwork(t *testing.T) {
	g := FromEdges([]Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2},
		{From: 2, To: 3, Time: 3}, {From: 1, To: 3, Time: 4},
	})
	ego := g.EgoNetwork(1)
	// Ego of 1: nodes {0,1,2,3}; all edges qualify except none excluded...
	// 2-3 qualifies because both are neighbors of 1.
	if ego.NumEdges() != 4 {
		t.Fatalf("ego edges = %d, want 4", ego.NumEdges())
	}
	// Isolated node's ego is empty.
	iso := g.EgoNetwork(399)
	if iso.NumEdges() != 0 {
		t.Fatal("isolated ego should have no edges")
	}
}

func TestSubgraphValidates(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	g := randomGraph(r, 20, 300, 100)
	for _, s := range []*Graph{
		g.TimeSlice(20, 80),
		g.InducedSubgraph([]NodeID{1, 3, 5, 7, 9}),
		g.FilterMinDegree(5),
		g.EgoNetwork(2),
	} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

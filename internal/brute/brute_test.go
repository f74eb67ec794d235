package brute

import (
	"testing"

	"hare/internal/motif"
	"hare/internal/temporal"
)

func TestCountTinyKnown(t *testing.T) {
	// Three parallel edges u->v within δ: exactly one M55 instance.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 0}, {From: 0, To: 1, Time: 5}, {From: 0, To: 1, Time: 9},
	})
	m := Count(g, 10)
	if m.Total() != 1 || m.At(motif.Label{Row: 5, Col: 5}) != 1 {
		t.Fatalf("matrix:\n%v", &m)
	}
	// With δ = 8 the window excludes the triple.
	m = Count(g, 8)
	if m.Total() != 0 {
		t.Fatalf("δ=8 total = %d, want 0", m.Total())
	}
}

func TestCountCycle(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 0, Time: 3},
	})
	m := Count(g, 10)
	if m.Total() != 1 || m.At(motif.Label{Row: 2, Col: 6}) != 1 {
		t.Fatalf("cycle should be one M26:\n%v", &m)
	}
}

func TestEnumerate(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 0, Time: 3},
		{From: 3, To: 4, Time: 100}, // unrelated edge far away in time
	})
	inst := Enumerate(g, 10)
	if len(inst) != 1 {
		t.Fatalf("instances = %d, want 1", len(inst))
	}
	if inst[0].Label != (motif.Label{Row: 2, Col: 6}) {
		t.Fatalf("label = %v, want M26", inst[0].Label)
	}
	if inst[0].Edges != [3]temporal.EdgeID{0, 1, 2} {
		t.Fatalf("edges = %v", inst[0].Edges)
	}
}

func TestCountLabel(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 0, Time: 3},
	})
	if got := CountLabel(g, 10, motif.Label{Row: 2, Col: 6}); got != 1 {
		t.Fatalf("M26 = %d, want 1", got)
	}
	if got := CountLabel(g, 10, motif.Label{Row: 1, Col: 1}); got != 0 {
		t.Fatalf("M11 = %d, want 0", got)
	}
}

func TestCenterTriplesKnown(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 2, To: 0, Time: 2}, {From: 0, To: 1, Time: 3},
		{From: 3, To: 4, Time: 4}, // not at the center
		{From: 0, To: 3, Time: 20},
	})
	oio, ooo, ioo := motif.PairIndex(motif.Out, motif.In, motif.Out),
		motif.PairIndex(motif.Out, motif.Out, motif.Out), motif.PairIndex(motif.In, motif.Out, motif.Out)
	var want [8]uint64
	want[oio] = 1 // (1, 2, 3); the edge at 20 is out of every window
	if got := CenterTriples(g, 0, 10); got != want {
		t.Fatalf("δ=10: %v, want %v", got, want)
	}
	want[oio], want[ooo], want[ioo] = 2, 1, 1 // every 3 of the center's 4 edges
	if got := CenterTriples(g, 0, 100); got != want {
		t.Fatalf("δ=100: %v, want %v", got, want)
	}
}

func TestFourNodePatternsIgnored(t *testing.T) {
	// Connected in aggregate but any triple spans 4 nodes -> no motifs...
	// here: a path of 3 edges over 4 nodes.
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 3, Time: 3},
	})
	if m := Count(g, 10); m.Total() != 0 {
		t.Fatalf("4-node path counted: %d", m.Total())
	}
}

package hare_test

import (
	"strings"
	"testing"

	"hare"
)

func TestCountStar4API(t *testing.T) {
	g := hare.FromEdges([]hare.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 2, To: 0, Time: 2},
		{From: 0, To: 3, Time: 3},
	})
	c, err := hare.CountStar4(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 1 {
		t.Fatalf("total = %d, want 1", c.Total())
	}
	if _, err := hare.CountStar4(nil, 10); err == nil {
		t.Fatal("want error for nil graph")
	}
	if _, err := hare.CountStar4(g, -5); err == nil || !strings.Contains(err.Error(), "(-5)") {
		t.Fatalf("want an error naming the negative δ, got %v", err)
	}
}

func TestCountPath4API(t *testing.T) {
	g := hare.FromEdges([]hare.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 1, To: 2, Time: 2},
		{From: 2, To: 3, Time: 3},
	})
	c, err := hare.CountPath4(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 1 {
		t.Fatalf("total = %d, want 1", c.Total())
	}
	if _, err := hare.CountPath4(nil, 10); err == nil {
		t.Fatal("want error for nil graph")
	}
	if _, err := hare.CountPath4(g, -1); err == nil || !strings.Contains(err.Error(), "(-1)") {
		t.Fatalf("want an error naming the negative δ, got %v", err)
	}
}

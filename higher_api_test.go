package hare_test

import (
	"math"
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

func TestCountMotifAPI(t *testing.T) {
	g := hare.FromEdges([]hare.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 1, To: 2, Time: 2},
		{From: 2, To: 0, Time: 3},
	})
	spec, err := hare.ParseSpecJSON([]byte(`{"edges":[{"src":"a","dst":"b"},{"src":"b","dst":"c"},{"src":"c","dst":"a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := hare.CountMotif(g, spec, 10); err != nil || n != 1 {
		t.Fatalf("cycle count = %d, %v; want 1", n, err)
	}
	if _, err := hare.CountMotif(nil, spec, 10); err == nil || err.Error() != "hare: nil graph" {
		t.Fatalf("want the nil-graph error, got %v", err)
	}
	if _, err := hare.CountMotif(g, nil, 10); err == nil || err.Error() != "hare: nil spec" {
		t.Fatalf("want the nil-spec error, got %v", err)
	}
	if _, err := hare.CountMotif(g, spec, -2); err == nil || !strings.Contains(err.Error(), "(-2)") {
		t.Fatalf("want an error naming the negative δ, got %v", err)
	}
}

// δ is any non-negative int64 and the server passes it through unchecked, so
// a window bound written t ± δ wraps around for huge δ and silently drops
// instances. Every family must give its δ = span answer for every δ beyond
// the span, up to MaxInt64 — on the five-edge graph where path4 once
// answered 6, 4, 1 and 0, and on the same graph shifted below zero, where
// t − δ is the bound that wraps.
func TestHugeDeltaCountsEverything(t *testing.T) {
	tri, err := hare.ParseSpec("a->b; b->c; c->a")
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []hare.Timestamp{0, -1000} {
		g := hare.FromEdges([]hare.Edge{
			{From: 0, To: 1, Time: 10 + shift},
			{From: 1, To: 2, Time: 20 + shift},
			{From: 2, To: 3, Time: 30 + shift},
			{From: 3, To: 0, Time: 40 + shift},
			{From: 2, To: 0, Time: 50 + shift},
		})
		const span = 40
		type answer struct {
			matrix hare.Matrix
			star4  hare.Star4Counter
			path4  hare.Path4Counter
			tri    uint64
		}
		count := func(delta hare.Timestamp) (a answer) {
			res, err := hare.Count(g, delta)
			if err != nil {
				t.Fatal(err)
			}
			a.matrix = res.Matrix
			if a.star4, err = hare.CountStar4(g, delta); err != nil {
				t.Fatal(err)
			}
			if a.path4, err = hare.CountPath4(g, delta); err != nil {
				t.Fatal(err)
			}
			if a.tri, err = hare.CountMotif(g, tri, delta); err != nil {
				t.Fatal(err)
			}
			return a
		}
		want := count(span)
		if want.path4.Total() != 6 || want.tri != 1 || want.matrix.Total() == 0 {
			t.Fatalf("shift %d: δ=span counts path4 %d, triangle spec %d, 36 motifs %d; want 6, 1, > 0",
				shift, want.path4.Total(), want.tri, want.matrix.Total())
		}
		for _, delta := range []hare.Timestamp{span + 1, 1000, math.MaxInt64 - 1045, math.MaxInt64 - 45,
			math.MaxInt64 - 15, math.MaxInt64 - 1, math.MaxInt64} {
			if got := count(delta); got != want {
				t.Errorf("shift %d δ=%d: got %+v, want the δ=span answer %+v", shift, delta, got, want)
			}
		}
	}
}

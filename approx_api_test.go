package hare_test

import (
	"strings"
	"testing"

	"hare"
)

// approxTestGraph is small enough that the default plan saturates every
// stratum, so the "estimate" is the exact count with a zero-width interval
// — the graceful-degradation contract at API level.
func approxTestGraph() *hare.Graph {
	return hare.FromEdges([]hare.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 2, To: 0, Time: 2},
		{From: 0, To: 3, Time: 3},
		{From: 1, To: 2, Time: 4},
		{From: 2, To: 3, Time: 5},
		{From: 3, To: 0, Time: 6},
	})
}

func TestCountStar4ApproxAPI(t *testing.T) {
	g := approxTestGraph()
	exact, err := hare.CountStar4(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hare.CountStar4Approx(g, 10, hare.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Total.Estimate, float64(exact.Total()); got != want {
		t.Fatalf("saturated estimate = %v, want exact %v", got, want)
	}
	if res.Total.Low != res.Total.High {
		t.Fatalf("saturated interval not zero-width: [%v, %v]", res.Total.Low, res.Total.High)
	}
	if res.ExactStrata != res.Strata {
		t.Fatalf("want all strata exact, got %d/%d", res.ExactStrata, res.Strata)
	}
	for i, iv := range res.Cells {
		if iv.Estimate != float64(exact[i]) {
			t.Fatalf("cell %d = %v, want %v", i, iv.Estimate, exact[i])
		}
	}
	if _, err := hare.CountStar4Approx(nil, 10, hare.ApproxOptions{}); err == nil {
		t.Fatal("want error for nil graph")
	}
	if _, err := hare.CountStar4Approx(g, -1, hare.ApproxOptions{}); err == nil || !strings.Contains(err.Error(), "(-1)") {
		t.Fatalf("want an error naming the negative δ, got %v", err)
	}
	if _, err := hare.CountStar4Approx(g, 10, hare.ApproxOptions{Epsilon: 1.5}); err == nil {
		t.Fatal("want error for epsilon out of range")
	}
}

func TestCountPath4ApproxAPI(t *testing.T) {
	g := approxTestGraph()
	exact, err := hare.CountPath4(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hare.CountPath4Approx(g, 10, hare.ApproxOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Total.Estimate, float64(exact.Total()); got != want {
		t.Fatalf("saturated estimate = %v, want exact %v", got, want)
	}
	if _, err := hare.CountPath4Approx(nil, 10, hare.ApproxOptions{}); err == nil {
		t.Fatal("want error for nil graph")
	}
	if _, err := hare.CountPath4Approx(g, -1, hare.ApproxOptions{}); err == nil || !strings.Contains(err.Error(), "(-1)") {
		t.Fatalf("want an error naming the negative δ, got %v", err)
	}
}

func TestCountMotifApproxAPI(t *testing.T) {
	g := approxTestGraph()
	spec, err := hare.ParseSpec("a->b; b->c; c->a")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := hare.CountMotif(g, spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hare.CountMotifApprox(g, spec, 10, hare.ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Total.Estimate, float64(exact); got != want {
		t.Fatalf("saturated estimate = %v, want exact %v", got, want)
	}
	if _, err := hare.CountMotifApprox(nil, spec, 10, hare.ApproxOptions{}); err == nil {
		t.Fatal("want error for nil graph")
	}
	if _, err := hare.CountMotifApprox(g, nil, 10, hare.ApproxOptions{}); err == nil {
		t.Fatal("want error for nil spec")
	}
	if _, err := hare.CountMotifApprox(g, spec, -1, hare.ApproxOptions{}); err == nil || !strings.Contains(err.Error(), "(-1)") {
		t.Fatalf("want an error naming the negative δ, got %v", err)
	}
}

// TestApproxAPIDeterministicWorkers pins the public determinism contract:
// same options, different Workers, identical result.
func TestApproxAPIDeterministicWorkers(t *testing.T) {
	g := approxTestGraph()
	base, err := hare.CountPath4Approx(g, 10, hare.ApproxOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := hare.CountPath4Approx(g, 10, hare.ApproxOptions{Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got.Total != base.Total {
			t.Fatalf("workers=%d total %+v != workers=1 total %+v", w, got.Total, base.Total)
		}
	}
}

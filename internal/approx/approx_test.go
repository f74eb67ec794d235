package approx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hare/internal/gen"
	"hare/internal/higher"
	"hare/internal/query"
	"hare/internal/temporal"
)

// randomGraph mirrors the corpus generator of the exact-counter tests
// (internal/higher, internal/brute): those packages prove the exact
// counters against exhaustive brute force on exactly this family, which is
// what makes CountStar4/CountPath4/Execute valid oracles here.
func randomGraph(r *rand.Rand, nodes, edges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	return b.Build()
}

// hubGraph is a small hub-skewed corpus graph: the shape the estimator
// exists for, and the shape where naive uniform sampling would miscover.
func hubGraph(seed int64) *temporal.Graph {
	return gen.MustGenerate(gen.Config{
		Name: "hub", Nodes: 1200, Edges: 2400, TimeSpan: 5000,
		ZipfS: 1.4, ReplyProb: 0.2, RepeatProb: 0.1, TriadProb: 0.1,
		BurstLen: 4, Seed: seed,
	})
}

func TestZQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.995, 2.5758293035489004},
		{0.01, -2.3263478740408408},
	}
	for _, c := range cases {
		if got := zQuantile(c.p); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("zQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(zQuantile(0), -1) || !math.IsInf(zQuantile(1), 1) {
		t.Errorf("zQuantile must saturate at the endpoints")
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{Epsilon: -0.1}, {Epsilon: 1}, {Epsilon: math.NaN()}} {
		if err := o.Validate(); err == nil {
			t.Errorf("Options%+v.Validate() = nil, want ErrEpsilon", o)
		}
	}
	for _, o := range []Options{{Confidence: -0.5}, {Confidence: 1}} {
		if err := o.Validate(); err == nil {
			t.Errorf("Options%+v.Validate() = nil, want ErrConfidence", o)
		}
	}
	if err := (Options{Samples: -1}).Validate(); err == nil {
		t.Errorf("negative Samples must be rejected")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options must validate, got %v", err)
	}
}

func TestBuildPlanProperties(t *testing.T) {
	g := hubGraph(1)
	k := PathKernel{}
	weight := degreeProduct(g)
	for _, o := range []Options{
		{},
		{Epsilon: 0.1, Confidence: 0.9, Seed: 7},
		{Samples: 50, Seed: 3},
		{Samples: 5},
		{Samples: 1 << 30}, // clamps to the domain: fully exact plan
	} {
		p, err := BuildPlan(k.Domain(g), k.Cells(), weight, o)
		if err != nil {
			t.Fatalf("BuildPlan(%+v): %v", o, err)
		}
		if p.Budget < 2 || p.Budget > p.Domain {
			t.Fatalf("budget %d outside [2, %d]", p.Budget, p.Domain)
		}
		covered, draws := 0, 0
		for i, st := range p.Strata {
			if st.Lo != covered {
				t.Fatalf("stratum %d starts at %d, want %d (contiguous)", i, st.Lo, covered)
			}
			covered = st.Hi
			n := st.Hi - st.Lo
			if n <= 0 {
				t.Fatalf("stratum %d is empty", i)
			}
			if st.Exact != (st.Draws == n) {
				t.Fatalf("stratum %d: exact=%v with draws %d of %d", i, st.Exact, st.Draws, n)
			}
			if !st.Exact && st.Draws < 2 {
				t.Fatalf("stratum %d: sampled with %d < 2 draws", i, st.Draws)
			}
			draws += st.Draws
		}
		if covered != p.Domain {
			t.Fatalf("strata cover [0, %d), want [0, %d)", covered, p.Domain)
		}
		if draws > p.Budget {
			t.Fatalf("allocated %d draws over budget %d", draws, p.Budget)
		}
		// Same inputs, same plan — the property the shard tier rides.
		p2, _ := BuildPlan(k.Domain(g), k.Cells(), weight, o)
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("BuildPlan is not deterministic for %+v", o)
		}
	}
	// The tightest accuracies size past the domain: exact enumeration, not
	// an int overflow clamped up to the draw floor.
	for _, eps := range []float64{1e-10, 1e-300} {
		p, err := BuildPlan(k.Domain(g), k.Cells(), weight, Options{Epsilon: eps})
		if err != nil || p.Budget != p.Domain {
			t.Fatalf("epsilon %g: budget %d of domain %d (err %v), want exact enumeration", eps, p.Budget, p.Domain, err)
		}
	}
	if _, err := BuildPlan(10, 1, func(int) float64 { return 1 }, Options{Epsilon: 2}); err == nil {
		t.Fatalf("invalid epsilon must fail BuildPlan")
	}
	empty, err := BuildPlan(0, 8, func(int) float64 { return 1 }, Options{})
	if err != nil || len(empty.Strata) != 0 {
		t.Fatalf("empty domain: plan %+v, err %v", empty, err)
	}
}

func mustSpec(t *testing.T, text string) *query.Spec {
	t.Helper()
	s, err := query.ParseSpec(text)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", text, err)
	}
	return s
}

// kernels under test, with their exact oracles (proven against exhaustive
// brute force in their home packages).
func kernelsFor(t *testing.T, g *temporal.Graph, delta temporal.Timestamp) map[string]struct {
	k     Kernel
	exact float64
} {
	path := higher.CountPath4(g, delta, higher.Options{Workers: 1})
	chain := query.Compile(mustSpec(t, "a->b; b->c; c->d"))
	return map[string]struct {
		k     Kernel
		exact float64
	}{
		"path4": {PathKernel{}, float64(path.Total())},
		"query": {PlanKernel{Plan: chain}, float64(chain.Execute(g, delta, query.Options{Workers: 1}))},
	}
}

func TestKernelsMatchExactOracles(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 40, 300, 2000)
	const delta = 400
	for name, tc := range kernelsFor(t, g, delta) {
		// Exhaustive plan (Samples = domain) must reproduce the exact
		// count with a zero-width interval: every stratum saturates.
		res, err := Estimate(g, tc.k, delta, Options{Samples: tc.k.Domain(g)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Total.Estimate != tc.exact || res.Total.Low != tc.exact || res.Total.High != tc.exact {
			t.Errorf("%s saturated: total %+v, want exactly %v", name, res.Total, tc.exact)
		}
		if res.ExactStrata != res.Strata {
			t.Errorf("%s saturated: %d/%d exact strata", name, res.ExactStrata, res.Strata)
		}
	}
	// Path cells must match the exact counter cell-for-cell when saturated.
	path := higher.CountPath4(g, delta, higher.Options{Workers: 1})
	res, err := Path4(g, delta, Options{Samples: g.NumEdges()})
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range res.Cells {
		if iv.Estimate != float64(path[i]) {
			t.Errorf("path cell %d: %v, want %v", i, iv.Estimate, path[i])
		}
	}
}

// The node-pivot families answer approximate requests with the exact count:
// 4-node stars cell for cell, and center plans (a star, a pair and a
// triangle spec) as one total, with zero-wide intervals, every node counted
// and the Exact flag set, at any knobs and worker count.
func TestNodePivotFamiliesAnswerExactly(t *testing.T) {
	g := hubGraph(6)
	const delta = 600
	star := higher.CountStar4(g, delta, higher.Options{Workers: 1})
	check := func(name string, res *Result, err error, cells []uint64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Cells) != len(cells) {
			t.Fatalf("%s: %d cells, want %d", name, len(res.Cells), len(cells))
		}
		var total uint64
		for i, c := range cells {
			total += c
			if iv := res.Cells[i]; iv.Estimate != float64(c) || iv.Low != iv.Estimate || iv.High != iv.Estimate {
				t.Fatalf("%s cell %d: %+v, want exactly %d", name, i, iv, c)
			}
		}
		exact := Interval{Estimate: float64(total), Low: float64(total), High: float64(total)}
		if total == 0 || res.Total != exact || !res.Exact || res.Draws != g.NumNodes() || res.Strata != 0 {
			t.Fatalf("%s: %+v, want the exact total %d over %d nodes", name, res, total, g.NumNodes())
		}
	}
	for _, o := range []Options{{}, {Epsilon: 0.3, Confidence: 0.8, Seed: 9, Workers: 2}, {Samples: 10, Workers: 4}} {
		res, err := Star4(g, delta, o)
		check("star4", res, err, star[:])
		for _, text := range []string{"c->x; y->c; c->z", "a->b; b->a; a->b", "a->b; b->c; c->a"} {
			p := query.Compile(mustSpec(t, text))
			res, err := Query(g, p, delta, o)
			check(text, res, err, []uint64{p.Execute(g, delta, query.Options{Workers: 1})})
		}
	}
	if res, err := Star4(g, delta, Options{Epsilon: 2}); err == nil {
		t.Fatalf("invalid epsilon answered %+v", res)
	}
	if res, err := Query(g, query.Compile(mustSpec(t, "a->b; b->c; c->a")), delta, Options{Confidence: 1}); err == nil {
		t.Fatalf("invalid confidence answered %+v", res)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	g := hubGraph(2)
	const delta = 600
	for name, tc := range kernelsFor(t, g, delta) {
		var ref *Result
		for _, workers := range []int{1, 2, 4} {
			res, err := Estimate(g, tc.k, delta, Options{Seed: 42, Samples: 300, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("%s: workers=%d result differs from workers=1\n got %+v\nwant %+v",
					name, workers, res, ref)
			}
		}
	}
	// The epsilon/conf road: auto-sized budgets must be deterministic too.
	a, err := Path4(g, delta, Options{Epsilon: 0.1, Confidence: 0.9, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Path4(g, delta, Options{Epsilon: 0.1, Confidence: 0.9, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("auto-sized path4 differs across worker counts")
	}
}

func TestUnbiasedness(t *testing.T) {
	// Mean over many seeds must land within 1% of the exact count: the
	// Horvitz–Thompson reweighting is unbiased, so the only slack is
	// sampling noise, which the seed count averages down.
	r := rand.New(rand.NewSource(23))
	g := randomGraph(r, 200, 800, 3000)
	const delta, seeds = 500, 150
	for name, tc := range kernelsFor(t, g, delta) {
		if tc.exact == 0 {
			t.Fatalf("%s: corpus graph has zero exact count; pick a denser corpus", name)
		}
		// Half the domain: every kernel genuinely samples (no kernel
		// saturates into trivially exact enumeration).
		samples := tc.k.Domain(g) / 2
		sum, sampled := 0.0, false
		for seed := int64(1); seed <= seeds; seed++ {
			res, err := Estimate(g, tc.k, delta, Options{Samples: samples, Seed: seed, Workers: 1})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			sum += res.Total.Estimate
			sampled = sampled || res.ExactStrata < res.Strata
		}
		if !sampled {
			t.Fatalf("%s: every stratum saturated; the test proved nothing", name)
		}
		mean := sum / seeds
		if rel := math.Abs(mean-tc.exact) / tc.exact; rel > 0.01 {
			t.Errorf("%s: mean over %d seeds = %v, exact = %v (rel err %.4f > 1%%)",
				name, seeds, mean, tc.exact, rel)
		}
	}
}

// TestCICalibration is the differential coverage test the race job runs as
// its dedicated approx-calibration step: across many seeds and 1/2/4
// workers, the reported 95% CI must cover the exact (brute-force-checked)
// count at >= the stated confidence. Every trial is a fixed (seed, knobs)
// pair, so the tally is reproducible, not statistically flaky.
func TestCICalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration tally is the race job's dedicated non-short step")
	}
	const delta = 600
	r := rand.New(rand.NewSource(31))
	// Corpus sized so that a third of any kernel's domain is still a few
	// hundred draws — the regime the epsilon knob produces (budget
	// (z/ε)² ≈ 1537 at the serving default). Far smaller pinned budgets
	// sit below CLT territory on skewed tallies and are not part of the
	// calibration contract (docs/APPROX.md).
	graphs := map[string]*temporal.Graph{
		"uniform": randomGraph(r, 600, 1800, 9000),
		"hub":     hubGraph(3),
	}
	const seeds = 60
	for gname, g := range graphs {
		for name, tc := range kernelsFor(t, g, delta) {
			// Two sweeps per kernel: the serving default (epsilon=0.05,
			// which saturates small domains — exact by construction), and
			// a pinned budget of a third of the domain, which forces real
			// sampling so the tally exercises the normal CI itself.
			sweeps := map[string]Options{
				"eps": {Epsilon: 0.05, Confidence: 0.95},
				"cap": {Samples: tc.k.Domain(g) / 3, Confidence: 0.95},
			}
			for sname, base := range sweeps {
				covered, trials := 0, 0
				for seed := int64(1); seed <= seeds; seed++ {
					o := base
					o.Seed = seed
					o.Workers = 1 << (seed % 3) // 1, 2, 4: the worker sweep
					res, err := Estimate(g, tc.k, delta, o)
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d: %v", gname, name, sname, seed, err)
					}
					trials++
					if res.Total.Low <= tc.exact && tc.exact <= res.Total.High {
						covered++
					}
				}
				rate := float64(covered) / float64(trials)
				t.Logf("%s/%s/%s: CI coverage %d/%d = %.3f (stated %.2f)",
					gname, name, sname, covered, trials, rate, 0.95)
				if rate < 0.95 {
					t.Errorf("%s/%s/%s: coverage %.3f below the stated confidence 0.95",
						gname, name, sname, rate)
				}
			}
		}
	}
}

func TestFinishRejectsMismatches(t *testing.T) {
	g := hubGraph(4)
	plan, err := NewPlan(g, PathKernel{}, Options{Samples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finish(plan, nil); err == nil {
		t.Errorf("Finish must reject a moment/stratum count mismatch")
	}
	moments := EstimateStrata(g, PathKernel{}, 600, plan, 2, 0, len(plan.Strata), nil)
	bad := make([]Moments, len(moments))
	copy(bad, moments)
	bad[0].Mean = bad[0].Mean[:1]
	if _, err := Finish(plan, bad); err == nil {
		t.Errorf("Finish must reject a series-length mismatch")
	}
	copy(bad, moments)
	bad[0].Draws++
	if _, err := Finish(plan, bad); err == nil {
		t.Errorf("Finish must reject a draw-count mismatch")
	}
	if _, err := Finish(plan, moments); err != nil {
		t.Errorf("Finish on matching moments: %v", err)
	}
}

func TestEstimateStrataRangesCompose(t *testing.T) {
	// Concatenating per-range moments in stratum order must finish to the
	// same result as the full local run — the shard gather contract.
	g := hubGraph(5)
	const delta = 600
	for name, tc := range kernelsFor(t, g, delta) {
		plan, err := NewPlan(g, tc.k, Options{Samples: 256, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		full := EstimateStrata(g, tc.k, delta, plan, 2, 0, len(plan.Strata), nil)
		mid := len(plan.Strata) / 2
		parts := append(
			EstimateStrata(g, tc.k, delta, plan, 3, 0, mid, nil),
			EstimateStrata(g, tc.k, delta, plan, 1, mid, len(plan.Strata), nil)...)
		if !reflect.DeepEqual(full, parts) {
			t.Fatalf("%s: range-split moments differ from the full run", name)
		}
		a, err := Finish(plan, full)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Finish(plan, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: finished results differ across the split", name)
		}
	}
}

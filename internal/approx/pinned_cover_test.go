package approx

import (
	"reflect"
	"testing"

	"hare/internal/gen"
	"hare/internal/higher"
)

// TestPinnedHubGraphIntervalCoversExact pins the headline run the docs
// quote (docs/APPROX.md): on the hub-skewed wikitalk suite graph at scale
// 0.5 (~140k edges), δ=600, the seed-1 ε=0.05 path4 interval must cover the
// exact count. Graph, seed and draw order are all fixed, so the outcome is
// deterministic — it is a regression pin, not a statistical test (that is
// TestCICalibration) — and it asserts no time: how much faster the
// estimator is than exact on this graph is the benchmark's
// approx.speedup_vs_exact (BENCHMARK.json).
func TestPinnedHubGraphIntervalCoversExact(t *testing.T) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		t.Fatal(err)
	}
	g := gen.MustGenerate(gen.Scaled(cfg, 0.5))
	const delta = 600

	pc := higher.CountPath4(g, delta, higher.Options{})
	exact := float64(pc.Total())
	var ref *Result
	for _, workers := range []int{1, 2} {
		res, err := Path4(g, delta, Options{Epsilon: 0.05, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Total.Low > exact || exact > res.Total.High {
			t.Errorf("workers=%d: interval [%.1f, %.1f] misses exact path4 count %.0f",
				workers, res.Total.Low, res.Total.High, exact)
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d result differs from workers=1\n got %+v\nwant %+v", workers, res, ref)
		}
	}
}

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchText(name string, samples []float64) string {
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b, "%s-8   \t      20\t   %.0f ns/op\t     120 B/op\t       3 allocs/op\n", name, s)
	}
	return b.String()
}

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	text := "goos: linux\ngoarch: amd64\npkg: hare\ncpu: something\n" +
		benchText("BenchmarkFoo", []float64{100, 110, 90}) +
		benchText("BenchmarkBar", []float64{5000}) +
		"PASS\nok  \there\t1.2s\n"
	set, err := ParseBenchOutput(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// The -8 GOMAXPROCS suffix is stripped so runners with different core
	// counts compare.
	if len(set.Order) != 2 || set.Order[0] != "BenchmarkFoo" || set.Order[1] != "BenchmarkBar" {
		t.Fatalf("order = %v", set.Order)
	}
	if got := set.Samples["BenchmarkFoo"]; len(got) != 3 || got[0] != 100 {
		t.Fatalf("foo samples = %v", got)
	}
	// A benchmark line without ns/op (custom units only) is skipped.
	set, err = ParseBenchOutput(strings.NewReader("BenchmarkX-4 10 99 MB/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Order) != 0 {
		t.Fatalf("custom-unit-only line parsed: %v", set.Order)
	}
	if _, err := ParseBenchOutput(strings.NewReader("BenchmarkX-4 10 abc ns/op\n")); err == nil {
		t.Fatal("want parse error for bad ns/op")
	}
}

func TestFencePassesOnEquivalentRuns(t *testing.T) {
	// Same distribution, mild noise: must not fail.
	old := benchText("BenchmarkFoo", []float64{1000, 1020, 990, 1010, 1005})
	cur := benchText("BenchmarkFoo", []float64{1008, 995, 1015, 1002, 992})
	var out strings.Builder
	err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15)
	if err != nil {
		t.Fatalf("fence failed on noise: %v\n%s", err, out.String())
	}
}

// TestFenceFailsOnInjectedSlowdown is the acceptance check for the CI
// fence, kept as a regression test: a consistent >15% slowdown with
// ordinary run-to-run noise must fail the comparison.
func TestFenceFailsOnInjectedSlowdown(t *testing.T) {
	old := benchText("BenchmarkFoo", []float64{1000, 1020, 990, 1010, 1005}) +
		benchText("BenchmarkBar", []float64{400, 404, 398, 401, 399})
	// Foo injected 30% slower; Bar unchanged.
	cur := benchText("BenchmarkFoo", []float64{1300, 1326, 1287, 1313, 1307}) +
		benchText("BenchmarkBar", []float64{401, 399, 403, 400, 402})
	var out strings.Builder
	err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15)
	if err == nil {
		t.Fatalf("fence passed an injected 30%% slowdown:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkFoo") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkBar") {
		t.Errorf("error names the unchanged benchmark: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("table missing REGRESSION verdict:\n%s", out.String())
	}
}

func TestFenceToleratesSlowdownWithinThreshold(t *testing.T) {
	// Statistically significant but only ~8% slower: within the fence.
	old := benchText("BenchmarkFoo", []float64{1000, 1001, 999, 1000, 1002})
	cur := benchText("BenchmarkFoo", []float64{1080, 1081, 1079, 1080, 1082})
	var out strings.Builder
	err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15)
	if err != nil {
		t.Fatalf("fence failed inside threshold: %v", err)
	}
	if !strings.Contains(out.String(), "slower (within fence)") {
		t.Errorf("significant slowdown not reported:\n%s", out.String())
	}
}

func TestFenceInsignificantLargeDelta(t *testing.T) {
	// Huge but wildly noisy difference: the permutation test cannot call
	// it at alpha=0.05 with overlapping samples, so the fence holds.
	old := benchText("BenchmarkFoo", []float64{1000, 4000, 800, 3500, 900})
	cur := benchText("BenchmarkFoo", []float64{3900, 1000, 4100, 950, 3800})
	var out strings.Builder
	if err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15); err != nil {
		t.Fatalf("fence failed on insignificant noise: %v", err)
	}
}

func TestFenceReportsAddedAndRemoved(t *testing.T) {
	old := benchText("BenchmarkGone", []float64{100, 101, 99, 100, 100}) +
		benchText("BenchmarkKept", []float64{200, 201, 199, 200, 200})
	cur := benchText("BenchmarkKept", []float64{200, 199, 201, 200, 200}) +
		benchText("BenchmarkNew", []float64{50, 51, 49, 50, 50})
	var out strings.Builder
	if err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15); err != nil {
		t.Fatalf("added/removed benchmarks must not fail the fence: %v", err)
	}
	if !strings.Contains(out.String(), "only in baseline") || !strings.Contains(out.String(), "only in current run") {
		t.Errorf("missing added/removed report:\n%s", out.String())
	}
}

func TestFenceComparesAcrossProcsSuffixes(t *testing.T) {
	// Baseline recorded on a 4-core runner, current run on 8 cores: the
	// names must still match (and a real regression must still fail).
	old := "BenchmarkFoo-4 20 1000 ns/op\nBenchmarkFoo-4 20 1010 ns/op\nBenchmarkFoo-4 20 990 ns/op\nBenchmarkFoo-4 20 1005 ns/op\nBenchmarkFoo-4 20 995 ns/op\n"
	cur := "BenchmarkFoo-8 20 1300 ns/op\nBenchmarkFoo-8 20 1313 ns/op\nBenchmarkFoo-8 20 1287 ns/op\nBenchmarkFoo-8 20 1306 ns/op\nBenchmarkFoo-8 20 1294 ns/op\n"
	var out strings.Builder
	if err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15); err == nil {
		t.Fatalf("suffix mismatch hid a 30%% regression:\n%s", out.String())
	}
}

func TestFenceFailsOnZeroOverlap(t *testing.T) {
	// Disjoint benchmark sets must fail loudly, not pass vacuously.
	old := benchText("BenchmarkOld", []float64{100, 101, 99, 100, 100})
	cur := benchText("BenchmarkRenamed", []float64{100, 101, 99, 100, 100})
	var out strings.Builder
	err := Fence(&out, writeBench(t, "old.txt", old), writeBench(t, "new.txt", cur), 0.05, 15)
	if err == nil || !strings.Contains(err.Error(), "no benchmark appears in both") {
		t.Fatalf("err = %v, want zero-overlap failure", err)
	}
}

func TestStripProcsSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":        "BenchmarkFoo",
		"BenchmarkFoo-128":      "BenchmarkFoo",
		"BenchmarkFoo":          "BenchmarkFoo",
		"BenchmarkFoo/sub-2":    "BenchmarkFoo/sub",
		"BenchmarkFoo/p-q":      "BenchmarkFoo/p-q", // non-numeric suffix kept
		"BenchmarkFoo-":         "BenchmarkFoo-",
		"-8":                    "-8",
		"BenchmarkFoo/size=1-4": "BenchmarkFoo/size=1",
	} {
		if got := stripProcsSuffix(in); got != want {
			t.Errorf("stripProcsSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFenceEmptyInputs(t *testing.T) {
	empty := writeBench(t, "empty.txt", "PASS\n")
	full := writeBench(t, "full.txt", benchText("BenchmarkFoo", []float64{1, 1, 1}))
	var out strings.Builder
	if err := Fence(&out, empty, full, 0.05, 15); err == nil {
		t.Fatal("want error for empty baseline")
	}
	if err := Fence(&out, full, empty, 0.05, 15); err == nil {
		t.Fatal("want error for empty current run")
	}
	if err := Fence(&out, filepath.Join(t.TempDir(), "missing.txt"), full, 0.05, 15); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestPermTestRankSum(t *testing.T) {
	// Too few samples on either side: no inference, p = 1.
	if p := permTestRankSum([]float64{1}, []float64{2, 3}); p != 1 {
		t.Fatalf("p = %g, want 1", p)
	}
	// Identical samples: nothing is extreme-er than observed 0 diff; p = 1.
	if p := permTestRankSum([]float64{5, 5, 5}, []float64{5, 5, 5}); p != 1 {
		t.Fatalf("identical p = %g, want 1", p)
	}
	// Fully separated groups: p is the minimum the split count allows.
	p := permTestRankSum([]float64{1, 2, 3, 4, 5}, []float64{101, 102, 103, 104, 105})
	if p >= 0.05 {
		t.Fatalf("separated p = %g, want < 0.05", p)
	}
	if p <= 0 {
		t.Fatalf("exact permutation p can never be 0 (got %g)", p)
	}
	// The normal-approximation fallback also separates clear shifts.
	big := make([]float64, 30)
	bigSlow := make([]float64, 30)
	for i := range big {
		big[i] = 1000 + float64(i%5)
		bigSlow[i] = 1400 + float64(i%5)
	}
	if p := permTestRankSum(big, bigSlow); p >= 0.05 {
		t.Fatalf("fallback p = %g, want < 0.05", p)
	}
}

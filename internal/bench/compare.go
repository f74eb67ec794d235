package bench

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file is the CI performance fence: it compares two `go test -bench`
// output files (the previous main-branch baseline and the current run,
// each with -count >= 2 so every benchmark has repeated samples) and fails
// on statistically significant regressions. The test is an exact
// Mann-Whitney rank-sum permutation test — the same distribution-free
// test benchstat applies — so noisy benchmarks don't trip the fence and
// consistent slowdowns can't hide behind "it's just noise".

// BenchSet holds ns/op samples per benchmark name, in first-seen order,
// and the cpu-ns/op samples of the benchmarks that report them
// (cputime.Report): the process's CPU time per op, which drift in the
// runner's speed moves far less than the wall clock.
type BenchSet struct {
	Order   []string
	Samples map[string][]float64
	CPU     map[string][]float64
}

// ParseBenchOutput reads `go test -bench` text and collects the ns/op
// samples of every benchmark line. Non-benchmark lines (goos/pkg headers,
// PASS, ok) are ignored. Repeated names (from -count) accumulate. The
// trailing GOMAXPROCS suffix ("-8") is stripped from names so a baseline
// recorded on a runner with a different core count still matches — with
// the suffix kept, every benchmark would land in the added/removed
// buckets and the fence would pass vacuously. A line's cpu-ns/op, when it
// has one, is collected beside its ns/op.
func ParseBenchOutput(r io.Reader) (*BenchSet, error) {
	set := &BenchSet{Samples: make(map[string][]float64), CPU: make(map[string][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: not a benchmark result line
		}
		// Value/unit pairs follow the iteration count; take ns/op and
		// cpu-ns/op.
		vals := make(map[string]float64, 2)
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if unit != "ns/op" && unit != "cpu-ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: bad %s %q in %q", unit, fields[i], sc.Text())
			}
			vals[unit] = v
		}
		ns, ok := vals["ns/op"]
		if !ok {
			continue
		}
		name := stripProcsSuffix(fields[0])
		if _, seen := set.Samples[name]; !seen {
			set.Order = append(set.Order, name)
		}
		set.Samples[name] = append(set.Samples[name], ns)
		if cpu, ok := vals["cpu-ns/op"]; ok {
			set.CPU[name] = append(set.CPU[name], cpu)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// stripProcsSuffix removes a trailing "-<digits>" GOMAXPROCS marker.
func stripProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// ParseBenchFile is ParseBenchOutput over a file.
func ParseBenchFile(path string) (*BenchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := ParseBenchOutput(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// Comparison is one benchmark's old-vs-new verdict.
type Comparison struct {
	Name                 string
	OldMedian, NewMedian float64
	// DeltaPct is the median ns/op change in percent (positive = slower).
	DeltaPct float64
	// OldCPU and NewCPU are the median cpu-ns/op, 0 where a side reports
	// none. They are shown beside ns/op and never fail the fence.
	OldCPU, NewCPU float64
	// P is the two-sided permutation-test p-value for a median shift; 1
	// when either side has fewer than 2 samples (no inference possible).
	P float64
	// Significant is P < alpha; Regression additionally requires the
	// slowdown to exceed the fence threshold.
	Significant bool
	Regression  bool
}

// FenceResult is the full comparison of two benchmark sets.
type FenceResult struct {
	Alpha         float64
	MaxRegressPct float64
	Comparisons   []Comparison
	// OldOnly and NewOnly are benchmarks present in exactly one set —
	// renamed, added or removed since the baseline. They never fail the
	// fence but are listed so silent disappearances stay visible.
	OldOnly, NewOnly []string
}

// Regressions returns the comparisons that fail the fence.
func (f *FenceResult) Regressions() []Comparison {
	var out []Comparison
	for _, c := range f.Comparisons {
		if c.Regression {
			out = append(out, c)
		}
	}
	return out
}

// CompareBench compares baseline and current sample sets. A benchmark
// fails the fence when its median slowdown exceeds maxRegressPct AND the
// permutation test rejects "same distribution" at alpha.
func CompareBench(old, cur *BenchSet, alpha, maxRegressPct float64) *FenceResult {
	res := &FenceResult{Alpha: alpha, MaxRegressPct: maxRegressPct}
	for _, name := range old.Order {
		ns, ok := cur.Samples[name]
		if !ok {
			res.OldOnly = append(res.OldOnly, name)
			continue
		}
		olds := old.Samples[name]
		c := Comparison{
			Name:      name,
			OldMedian: median(olds),
			NewMedian: median(ns),
			OldCPU:    median(old.CPU[name]),
			NewCPU:    median(cur.CPU[name]),
			P:         permTestRankSum(olds, ns),
		}
		if c.OldMedian > 0 {
			c.DeltaPct = (c.NewMedian - c.OldMedian) / c.OldMedian * 100
		}
		c.Significant = c.P < alpha
		c.Regression = c.Significant && c.DeltaPct > maxRegressPct
		res.Comparisons = append(res.Comparisons, c)
	}
	for _, name := range cur.Order {
		if _, ok := old.Samples[name]; !ok {
			res.NewOnly = append(res.NewOnly, name)
		}
	}
	return res
}

// Write renders a benchstat-style table plus the fence verdict.
func (f *FenceResult) Write(w io.Writer) {
	fmt.Fprintf(w, "bench fence: alpha=%g, fail on significant slowdown > %g%%\n", f.Alpha, f.MaxRegressPct)
	fmt.Fprintf(w, "%-44s %14s %14s %9s %8s  %-22s %14s %14s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "p", "verdict", "old cpu-ns/op", "new cpu-ns/op", "cpu delta")
	for _, c := range f.Comparisons {
		verdict := "~"
		switch {
		case c.Regression:
			verdict = "REGRESSION"
		case c.Significant && c.DeltaPct < 0:
			verdict = "improved"
		case c.Significant:
			verdict = "slower (within fence)"
		}
		cpu := ""
		if c.OldCPU > 0 && c.NewCPU > 0 {
			cpu = fmt.Sprintf(" %14.0f %14.0f %+8.1f%%", c.OldCPU, c.NewCPU, (c.NewCPU-c.OldCPU)/c.OldCPU*100)
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+8.1f%% %8.3f  %-22s%s\n",
			c.Name, c.OldMedian, c.NewMedian, c.DeltaPct, c.P, verdict, cpu)
	}
	for _, name := range f.OldOnly {
		fmt.Fprintf(w, "%-44s only in baseline (renamed or removed?)\n", name)
	}
	for _, name := range f.NewOnly {
		fmt.Fprintf(w, "%-44s only in current run (new benchmark)\n", name)
	}
}

// Fence compares two bench files and returns an error naming every fenced
// regression (nil when the fence holds). The table is written to w.
func Fence(w io.Writer, oldPath, newPath string, alpha, maxRegressPct float64) error {
	old, err := ParseBenchFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := ParseBenchFile(newPath)
	if err != nil {
		return err
	}
	if len(old.Order) == 0 {
		return fmt.Errorf("bench: no benchmark results in baseline %s", oldPath)
	}
	if len(cur.Order) == 0 {
		return fmt.Errorf("bench: no benchmark results in %s", newPath)
	}
	res := CompareBench(old, cur, alpha, maxRegressPct)
	res.Write(w)
	if len(res.Comparisons) == 0 {
		// Nothing overlapped: comparing would be vacuous, and exiting 0
		// would silently disable the fence (and promote this run to the
		// next baseline). Fail loudly instead.
		return fmt.Errorf("bench: no benchmark appears in both %s and %s — fence cannot compare", oldPath, newPath)
	}
	if regs := res.Regressions(); len(regs) > 0 {
		names := make([]string, len(regs))
		for i, c := range regs {
			names[i] = fmt.Sprintf("%s (+%.1f%%, p=%.3f)", c.Name, c.DeltaPct, c.P)
		}
		return fmt.Errorf("bench: %d significant regression(s) > %g%%: %s",
			len(regs), maxRegressPct, strings.Join(names, "; "))
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// permTestRankSum is an exact two-sided Mann-Whitney/Wilcoxon test: the
// statistic is the rank sum of the first group over the pooled samples
// (midranks for ties), and the p-value is the fraction of all C(n+m,n)
// group assignments whose rank sum deviates from its permutation mean at
// least as much as the observed one. Exact, distribution free, and never
// below 1/C(n+m,n) because the identity split always counts. Beyond
// maxExactSplits it switches to the standard normal approximation with
// tie correction.
func permTestRankSum(a, b []float64) float64 {
	n, m := len(a), len(b)
	if n < 2 || m < 2 {
		return 1
	}
	ranks := midranks(a, b)
	obsW := 0.0
	for i := 0; i < n; i++ {
		obsW += ranks[i]
	}
	meanW := float64(n) * float64(n+m+1) / 2
	obsDev := math.Abs(obsW - meanW)
	const eps = 1e-9
	tol := eps * (1 + obsDev)

	if binomial(n+m, n) > maxExactSplits {
		return rankSumNormalP(ranks, n, m, obsDev)
	}
	// Enumerate every choice of n rank positions for group A.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	total, extreme := 0, 0
	for {
		total++
		w := 0.0
		for _, j := range idx {
			w += ranks[j]
		}
		if math.Abs(w-meanW) >= obsDev-tol {
			extreme++
		}
		// next combination of n indices out of n+m
		i := n - 1
		for i >= 0 && idx[i] == m+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < n; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return float64(extreme) / float64(total)
}

// midranks returns the pooled midranks of a then b: ranks 1..n+m with
// tied values sharing the average of the ranks they span.
func midranks(a, b []float64) []float64 {
	n, m := len(a), len(b)
	pool := append(append(make([]float64, 0, n+m), a...), b...)
	order := make([]int, n+m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return pool[order[i]] < pool[order[j]] })
	ranks := make([]float64, n+m)
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && pool[order[j]] == pool[order[i]] {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[order[k]] = mid
		}
		i = j
	}
	return ranks
}

// maxExactSplits bounds the exact enumeration: C(10,5)=252 for the CI
// default of -count=5 vs -count=5; C(20,10)=184756 still enumerates in
// well under a second.
const maxExactSplits = 200_000

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
		if r > 10*maxExactSplits { // avoid overflow; caller only thresholds
			return r
		}
	}
	return r
}

// rankSumNormalP is the large-sample normal approximation of the rank-sum
// permutation distribution, with the usual tie correction. Only used
// beyond maxExactSplits, i.e. -count well above anything CI runs.
func rankSumNormalP(ranks []float64, n, m int, obsDev float64) float64 {
	N := float64(n + m)
	// Tie correction: sum over tie groups of (t^3 - t).
	counts := make(map[float64]float64, len(ranks))
	for _, r := range ranks {
		counts[r]++
	}
	tieSum := 0.0
	for _, t := range counts {
		tieSum += t*t*t - t
	}
	sigma2 := float64(n) * float64(m) / 12 * (N + 1 - tieSum/(N*(N-1)))
	if sigma2 <= 0 {
		return 1 // all values tied: no evidence of a shift
	}
	z := obsDev / math.Sqrt(sigma2)
	return math.Erfc(z / math.Sqrt2)
}

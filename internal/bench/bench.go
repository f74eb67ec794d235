// Package bench regenerates every table and figure of the paper's evaluation
// section (Tables II–III, Figures 9–12) on the synthetic dataset suite. Each
// experiment prints rows mirroring the paper's layout so measured shapes can
// be compared side by side with the published ones (EXPERIMENTS.md records a
// reference run). The package also holds the Mann-Whitney regression fence
// over `go test -bench` output (compare.go). End-to-end numbers are not
// measured here: they come from benchmark/ (BENCHMARK.json).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"hare/internal/baseline/bt"
	"hare/internal/baseline/bts"
	"hare/internal/baseline/ews"
	"hare/internal/baseline/exact"
	"hare/internal/baseline/twoscent"
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/gen"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the report (required).
	Out io.Writer
	// Scale multiplies every dataset's node/edge/time-span counts
	// (default 1.0 — the full synthetic suite).
	Scale float64
	// Delta is the motif window in seconds (default 600, as in the paper).
	Delta temporal.Timestamp
	// Datasets restricts the run to the named datasets (nil = the
	// experiment's paper-default set).
	Datasets []string
	// Threads is the thread sweep for the scalability experiments
	// (default 1,2,4,8,16,32 as in Fig. 11, capped at NumCPU×2).
	Threads []int
	// Seed offsets the dataset seeds (default 0: the canonical suite).
	Seed int64
}

func (o Options) scale() float64 {
	if o.Scale > 0 {
		return o.Scale
	}
	return 1
}

func (o Options) delta() temporal.Timestamp {
	if o.Delta > 0 {
		return o.Delta
	}
	return 600
}

func (o Options) threads() []int {
	if len(o.Threads) > 0 {
		return o.Threads
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	return []string{"table2", "table3", "fig9", "fig10", "fig11", "fig12a", "fig12b"}
}

// Run dispatches an experiment by name.
func Run(name string, opts Options) error {
	switch name {
	case "table2":
		return Table2(opts)
	case "table3":
		return Table3(opts)
	case "fig9":
		return Fig9(opts)
	case "fig10":
		return Fig10(opts)
	case "fig11":
		return Fig11(opts)
	case "fig12a":
		return Fig12a(opts)
	case "fig12b":
		return Fig12b(opts)
	case "all":
		for _, n := range Experiments() {
			if err := Run(n, opts); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v, all)", name, Experiments())
	}
}

// suite resolves the dataset list for an experiment, applying scale and seed.
type suite struct {
	opts  Options
	cache map[string]*temporal.Graph
}

func newSuite(opts Options) *suite {
	return &suite{opts: opts, cache: make(map[string]*temporal.Graph)}
}

func (s *suite) names(def []string) []string {
	if len(s.opts.Datasets) > 0 {
		return s.opts.Datasets
	}
	return def
}

func (s *suite) graph(name string) (*temporal.Graph, error) {
	if g, ok := s.cache[name]; ok {
		return g, nil
	}
	cfg, err := gen.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	cfg = gen.Scaled(cfg, s.opts.scale())
	cfg.Seed += s.opts.Seed
	g, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	s.cache[name] = g
	return g, nil
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// Table2 prints the dataset statistics table (paper Table II).
func Table2(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	fmt.Fprintf(w, "== Table II: dataset statistics (synthetic analogues, scale=%.2f) ==\n", opts.scale())
	fmt.Fprintf(w, "%-16s %10s %12s %14s %9s %9s %7s\n",
		"dataset", "#nodes", "#edges", "timespan(s)", "maxdeg", "meandeg", "gini")
	for _, name := range s.names(gen.DatasetNames()) {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		st := temporal.ComputeStats(g, 20)
		fmt.Fprintf(w, "%-16s %10d %12d %14d %9d %9.2f %7.3f\n",
			name, st.Nodes, st.Edges, st.TimeSpan, st.MaxDegree, st.MeanDegree, st.DegreeGini)
	}
	fmt.Fprintln(w)
	return nil
}

// Table3 prints single-threaded runtimes of every algorithm plus speedups
// (paper Table III; δ = 600s, one thread).
func Table3(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	delta := opts.delta()
	fmt.Fprintf(w, "== Table III: single-thread runtime in seconds (δ=%ds, scale=%.2f) ==\n", delta, opts.scale())
	fmt.Fprintf(w, "%-16s %8s %8s %8s %6s | %8s %8s %9s %6s | %9s %9s %6s\n",
		"dataset", "EX", "EWS", "FAST", "spd",
		"BT-Pair", "BTS-Pair", "FAST-Pair", "spd",
		"2SCENT", "FAST-Tri", "spd")
	for _, name := range s.names(gen.DatasetNames()) {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		var exM, fastM motif.Matrix
		tEX := timeIt(func() { exM = exact.Count(g, delta) })
		tEWS := timeIt(func() { ews.EstimateAll(g, delta, ews.Options{P: 0.05, Seed: 1}) })
		var fc *motif.Counts
		tFAST := timeIt(func() { fc = fast.Count(g, delta) })
		fastM = fc.ToMatrix()
		if !fastM.Equal(&exM) {
			return fmt.Errorf("table3: %s: EX and FAST disagree at %v", name, fastM.Diff(&exM))
		}
		tBT := timeIt(func() { bt.CountPairs(g, delta) })
		tBTS := timeIt(func() { bts.EstimatePairs(g, delta, bts.Options{Q: 0.3, Seed: 1}) })
		tFP := timeIt(func() { fast.CountStarPair(g, delta) })
		tTS := timeIt(func() { twoscent.CountCycles(g, delta) })
		tFT := timeIt(func() { fast.CountTri(g, delta) })
		fmt.Fprintf(w, "%-16s %8.3f %8.3f %8.3f %5.1fx | %8.3f %8.3f %9.3f %5.1fx | %9.3f %9.3f %5.1fx\n",
			name, secs(tEX), secs(tEWS), secs(tFAST), secs(tEX)/secs(tFAST),
			secs(tBT), secs(tBTS), secs(tFP), secs(tBT)/secs(tFP),
			secs(tTS), secs(tFT), secs(tTS)/secs(tFT))
	}
	fmt.Fprintln(w)
	return nil
}

// Fig9 groups per-node work by log2 degree bucket, timing the paper's
// algorithms per center, as the figure does: Algorithm 1 (FAST-Star) plus
// the triangles that center owns. The engine counts stars and pairs with the
// sweep (fast.SweepStarPairRange) instead, whose per-center cost is linear
// in the degree.
func Fig9(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	delta := opts.delta()
	names := s.names([]string{"wikitalk"})
	for _, name := range names {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Fig. 9: degree distribution and per-node counting time (%s, δ=%ds) ==\n", name, delta)
		hist := temporal.DegreeHistogram(g)
		type bucket struct {
			nodes int
			total time.Duration
		}
		buckets := make([]bucket, len(hist))
		scratch := fast.NewScratch()
		counts := &motif.Counts{}
		for u := 0; u < g.NumNodes(); u++ {
			d := g.Degree(temporal.NodeID(u))
			if d == 0 {
				continue
			}
			b := 0
			for dd := d; dd >= 2; dd >>= 1 {
				b++
			}
			el := timeIt(func() {
				fast.CountStarPairNode(g, temporal.NodeID(u), delta, counts, scratch)
				fast.CountTriNode(g, temporal.NodeID(u), delta, &counts.Tri, true)
			})
			buckets[b].nodes++
			buckets[b].total += el
		}
		fmt.Fprintf(w, "%-14s %10s %14s %16s\n", "degree bucket", "#nodes", "total time", "avg time/node")
		var grand time.Duration
		for _, b := range buckets {
			grand += b.total
		}
		for i, b := range buckets {
			if b.nodes == 0 {
				continue
			}
			lo := 1 << i
			fmt.Fprintf(w, "[%5d,%5d) %10d %14v %16v\n",
				lo, lo*2, b.nodes, b.total.Round(time.Microsecond),
				(b.total / time.Duration(b.nodes)).Round(time.Nanosecond))
		}
		if len(buckets) > 0 && grand > 0 {
			top := buckets[len(buckets)-1]
			fmt.Fprintf(w, "top bucket holds %.1f%% of total counting time with %d node(s)\n",
				100*float64(top.total)/float64(grand), top.nodes)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig10 prints the 6×6 count matrices of FAST and EX side by side and checks
// exact agreement (paper Fig. 10; the paper's datasets are CollegeMsg,
// Superuser, WikiTalk, StackOverflow).
func Fig10(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	delta := opts.delta()
	for _, name := range s.names([]string{"collegemsg", "superuser", "wikitalk", "stackoverflow"}) {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		fastM := fast.Count(g, delta).ToMatrix()
		exM := exact.Count(g, delta)
		status := "IDENTICAL"
		if !fastM.Equal(&exM) {
			status = fmt.Sprintf("MISMATCH at %v", fastM.Diff(&exM))
		}
		fmt.Fprintf(w, "== Fig. 10: motif count matrix, %s (δ=%ds) — FAST vs EX: %s ==\n", name, delta, status)
		fmt.Fprintln(w, "FAST:")
		fastM.Write(w)
		fmt.Fprintln(w, "EX:")
		exM.Write(w)
		fmt.Fprintln(w)
		if status != "IDENTICAL" {
			return fmt.Errorf("fig10: %s: FAST and EX disagree", name)
		}
	}
	return nil
}

// fig11Defaults is the paper's Fig. 11 dataset list.
var fig11Defaults = []string{
	"stackoverflow", "wikitalk", "mathoverflow", "superuser", "fb-wall", "askubuntu",
	"sms-a", "act-mooc", "ia-online-ads", "rec-movielens", "soc-bitcoin", "redditcomments",
}

// Fig11 sweeps thread counts: HARE vs parallel EX, and HARE-Pair vs parallel
// BTS-Pair (paper Fig. 11).
func Fig11(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	delta := opts.delta()
	threads := capThreads(opts.threads())
	for _, name := range s.names(fig11Defaults) {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Fig. 11: runtime vs #threads, %s (δ=%ds, scale=%.2f) ==\n", name, delta, opts.scale())
		fmt.Fprintf(w, "%8s %10s %10s %12s %12s\n", "#threads", "HARE", "EX", "HARE-Pair", "BTS-Pair")
		for _, th := range threads {
			tHARE := timeIt(func() { engine.Count(g, delta, engine.Options{Workers: th}) })
			tEX := timeIt(func() { exact.CountParallel(g, delta, th) })
			tHP := timeIt(func() {
				engine.CountCategoryRange(g, delta, engine.Options{Workers: th}, 0, g.NumIncidences(), motif.CategoryPair)
			})
			tBTS := timeIt(func() { bts.EstimatePairs(g, delta, bts.Options{Q: 0.3, Seed: 1, Workers: th}) })
			fmt.Fprintf(w, "%8d %10.3f %10.3f %12.3f %12.3f\n",
				th, secs(tHARE), secs(tEX), secs(tHP), secs(tBTS))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig12a sweeps δ: HARE (max threads) vs EX on the paper's three datasets.
func Fig12a(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	threads := capThreads([]int{32})[0]
	deltas := []temporal.Timestamp{7200, 14400, 21600, 28800}
	for _, name := range s.names([]string{"superuser", "askubuntu", "mathoverflow"}) {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Fig. 12(a): runtime vs δ, %s (#threads=%d) ==\n", name, threads)
		fmt.Fprintf(w, "%10s %12s %12s\n", "δ(s)", "HARE", "EX")
		for _, d := range deltas {
			tHARE := timeIt(func() { engine.Count(g, d, engine.Options{Workers: threads}) })
			tEX := timeIt(func() { exact.Count(g, d) })
			fmt.Fprintf(w, "%10d %12.3f %12.3f\n", d, secs(tHARE), secs(tEX))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig12b sweeps the degree threshold thrd on WikiTalk across thread counts,
// including the "without thrd" (static, flat) ablation and pure dynamic
// scheduling (paper Fig. 12(b)).
func Fig12b(opts Options) error {
	w := opts.Out
	s := newSuite(opts)
	delta := opts.delta()
	threads := capThreads(opts.threads())
	names := s.names([]string{"wikitalk"})
	for _, name := range names {
		g, err := s.graph(name)
		if err != nil {
			return err
		}
		// Scale the paper's absolute thresholds (10K–30K on the real
		// WikiTalk) to this graph via its top degrees.
		st := temporal.ComputeStats(g, 20)
		maxDeg := st.MaxDegree
		mk := func(f float64) int { return int(f * float64(maxDeg)) }
		configs := []struct {
			label string
			opt   engine.Options
		}{
			{"without-thrd(static)", engine.Options{Schedule: engine.ScheduleStatic, DegreeThreshold: -1}},
			{"dynamic", engine.Options{DegreeThreshold: -1}},
			{fmt.Sprintf("thrd=%d", mk(0.05)), engine.Options{DegreeThreshold: mk(0.05)}},
			{fmt.Sprintf("thrd=%d", mk(0.10)), engine.Options{DegreeThreshold: mk(0.10)}},
			{fmt.Sprintf("thrd=%d", mk(0.25)), engine.Options{DegreeThreshold: mk(0.25)}},
			{fmt.Sprintf("thrd=%d", mk(0.50)), engine.Options{DegreeThreshold: mk(0.50)}},
			{"thrd=auto(top20)", engine.Options{}},
		}
		fmt.Fprintf(w, "== Fig. 12(b): runtime vs thrd, %s (δ=%ds, maxdeg=%d) ==\n", name, delta, maxDeg)
		fmt.Fprintf(w, "%-22s", "config \\ #threads")
		for _, th := range threads {
			fmt.Fprintf(w, "%10d", th)
		}
		fmt.Fprintln(w)
		for _, c := range configs {
			fmt.Fprintf(w, "%-22s", c.label)
			for _, th := range threads {
				o := c.opt
				o.Workers = th
				t := timeIt(func() { engine.Count(g, delta, o) })
				fmt.Fprintf(w, "%10.3f", secs(t))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// capThreads limits requested thread counts to a sane bound for the host.
func capThreads(ths []int) []int {
	limit := runtime.NumCPU() * 2
	out := make([]int, 0, len(ths))
	for _, t := range ths {
		if t < 1 {
			continue
		}
		if t > limit {
			t = limit
		}
		out = append(out, t)
	}
	sort.Ints(out)
	// dedupe after capping
	uniq := out[:0]
	for i, t := range out {
		if i == 0 || t != out[i-1] {
			uniq = append(uniq, t)
		}
	}
	if len(uniq) == 0 {
		uniq = append(uniq, 1)
	}
	return uniq
}

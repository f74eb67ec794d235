// Command benchmark is the repository's benchmark: five workloads run
// against real hared and harecount processes for the end-to-end metrics,
// and replayed in-process with a span at every module seam for the
// per-layer ones. README.md explains the workloads and every metric;
// BENCHMARK.json is the contract the driver runs it by.
//
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --compare dirA dirB
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	sizes    sizes
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run found out; it is stored next to the span
// file and is what --compare reads.
type report struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	StealPct    float64     `json:"host_steal_pct"`
	result
	// Detail holds what the metrics were computed from: sample counts,
	// quartiles, per-kind breakdowns, counters scraped from /metrics.
	Detail   map[string]any `json:"detail"`
	Failures []string       `json:"failures,omitempty"`
}

// bench is the state of one run of one workload.
type bench struct {
	cfg config
	env *env
	tr  *tracer // nil unless --trace 1
	rep *report

	values map[string]float64 // metrics by name, filled by the workload
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) detail(name string, v any) { b.rep.Detail[name] = v }

// fail records one failed operation's reason; the first few are printed.
func (b *bench) fail(format string, args ...any) {
	if len(b.rep.Failures) < 10 {
		b.rep.Failures = append(b.rep.Failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) window() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all five, one after the other)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation lists")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = replay in-process with spans and report the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "", "directory for reports and span files (default .bench_build/out)")
	flag.BoolVar(&compare, "compare", false, "compare two directories (or files) of reports: --compare A B")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sizes = fullSizes

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two paths"))
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	// Children die and the work directory goes on every exit path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			e.cleanup()
			panic(r)
		}
	}()
	code := 0
	if err := e.buildSUT(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	for _, name := range names {
		if code != 0 {
			break
		}
		cfg.workload = name
		rep, err := runWorkload(e, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			break
		}
		rep.print(os.Stderr)
		line, _ := json.Marshal(rep.result)
		fmt.Println(string(line))
	}
	e.cleanup()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload runs one workload once and stores its report.
func runWorkload(e *env, cfg config) (*report, error) {
	var decl *workloadDecl
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			decl = &workloads[i]
		}
	}
	if decl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(e.root, ".bench_build", "out")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		cfg:    cfg,
		env:    e,
		values: make(map[string]float64),
		rep: &report{
			Workload:    cfg.workload,
			Seed:        cfg.seed,
			Seconds:     cfg.seconds,
			Trace:       cfg.trace,
			Fingerprint: readFingerprint(e.root),
			Detail:      make(map[string]any),
		},
	}
	if cfg.trace {
		b.tr = newTracer()
		// The shard client sends through the default transport; this is
		// how the spans of a scatter reach the workers.
		base := http.DefaultTransport
		http.DefaultTransport = &transport{b.tr, base}
		defer func() { http.DefaultTransport = base }()
	}
	cpu0 := readCPUTimes()
	if err := decl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	b.rep.StealPct = stealPct(cpu0, readCPUTimes())

	decls := endToEnd
	if cfg.trace {
		decls = perLayer
		b.set("host.steal_pct", b.rep.StealPct)
		b.set("host.nproc", float64(runtime.NumCPU()))
		if err := b.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}
	b.rep.Metrics = make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := b.values[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		b.rep.Metrics[d.name] = metric{v, d.unit}
	}
	b.rep.Correct = b.rep.Failed == 0 && b.rep.Attempted > 0
	data, err := json.MarshalIndent(b.rep, "", " ")
	if err != nil {
		return nil, err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%d.json", cfg.workload, mode, cfg.seed, time.Now().UnixNano())
	return b.rep, os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644)
}

// print writes the report for a person: the fingerprint first, then every
// metric by name with its unit.
func (r *report) print(w *os.File) {
	fp := r.Fingerprint
	mode := "untraced, real processes"
	if r.Trace {
		mode = "traced, in-process"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%g\n", r.Workload, mode, r.Seed, r.Seconds)
	fmt.Fprintf(w, "   cpu=%q nproc=%d GOMAXPROCS=%d %s kernel=%s rev=%s steal=%.2f%%\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.GitRev, r.StealPct)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if r.Trace && m.Value == 0 {
			continue // a layer off this workload's path
		}
		fmt.Fprintf(w, "   %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := json.Marshal(r.Detail[k])
		fmt.Fprintf(w, "   . %s = %s\n", k, v)
	}
}

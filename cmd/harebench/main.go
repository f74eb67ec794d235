// Command harebench regenerates the paper's evaluation tables and figures
// on the synthetic dataset suite, or fences two `go test -bench` outputs
// against each other.
//
// Usage:
//
//	harebench -exp table3                       # one experiment
//	harebench -exp all -scale 0.25              # the whole evaluation
//	harebench -exp fig11 -datasets wikitalk,sms-a -threads 1,2,4,8
//	harebench -compare -old baseline/bench.txt -new bench.txt
//
// Experiments: table2, table3, fig9, fig10, fig11, fig12a, fig12b, all.
// With -compare two `go test -bench` output files are compared with an
// exact permutation test and the command exits 1 on any statistically
// significant ns/op regression beyond -max-regress percent — the CI
// performance fence. Benchmarks that report cpu-ns/op (the process's CPU
// time per op) get it printed beside ns/op; it does not gate. End-to-end numbers (real processes, latency
// percentiles, CPU and memory per operation) come from
// `bash benchmark/run.sh`, not from this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hare/internal/bench"
	"hare/internal/buildinfo"
	"hare/internal/temporal"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (see package doc)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (> 0)")
		delta    = flag.Int64("delta", 600, "δ in seconds (> 0)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: the experiment's paper set)")
		threads  = flag.String("threads", "1,2,4,8,16,32", "comma-separated thread sweep (each >= 1)")
		seed     = flag.Int64("seed", 0, "seed offset for the generated datasets")
		compare  = flag.Bool("compare", false, "compare mode: fence two `go test -bench` output files instead of benchmarking")
		oldPath  = flag.String("old", "", "compare mode: baseline bench output file (required)")
		newPath  = flag.String("new", "", "compare mode: current bench output file (required)")
		alpha    = flag.Float64("alpha", 0.05, "compare mode: significance level of the permutation test")
		maxReg   = flag.Float64("max-regress", 15, "compare mode: fail on significant slowdowns above this percent")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("harebench", buildinfo.Version())
		return
	}
	if *compare {
		if *oldPath == "" || *newPath == "" {
			usageErr("-compare requires -old and -new")
		}
		if *alpha <= 0 || *alpha >= 1 {
			usageErr("-alpha must be in (0,1) (got %g)", *alpha)
		}
		if *maxReg < 0 {
			usageErr("-max-regress must be >= 0 (got %g)", *maxReg)
		}
		if err := bench.Fence(os.Stdout, *oldPath, *newPath, *alpha, *maxReg); err != nil {
			fmt.Fprintln(os.Stderr, "harebench:", err)
			os.Exit(1)
		}
		return
	}
	if *scale <= 0 {
		usageErr("-scale must be > 0 (got %g)", *scale)
	}
	if *delta <= 0 {
		usageErr("-delta must be > 0 (got %d)", *delta)
	}
	ths, err := parseInts(*threads)
	if err != nil {
		usageErr("-threads: %v", err)
	}
	for _, th := range ths {
		if th < 1 {
			usageErr("-threads entries must be >= 1 (got %d)", th)
		}
	}
	opts := bench.Options{
		Out:     os.Stdout,
		Scale:   *scale,
		Delta:   temporal.Timestamp(*delta),
		Threads: ths,
		Seed:    *seed,
	}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}
	if err := bench.Run(*exp, opts); err != nil {
		fmt.Fprintln(os.Stderr, "harebench:", err)
		os.Exit(1)
	}
}

// usageErr reports a flag-validation failure with usage text and exits 2,
// matching the flag package's own misuse convention.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "harebench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

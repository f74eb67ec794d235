// Command harecount counts δ-temporal motifs in an edge-list file.
//
// Usage:
//
//	harecount -input edges.txt [-delta 600] [-workers 0] [-thrd 0]
//	          [-motif M26] [-query "a->b; a->c; a->d"] [-relabel]
//	          [-comma] [-stats] [-check] [-load-workers 0]
//	          [-epsilon 0.05] [-conf 0.95] [-seed 0] [-samples 0]
//
// The input format is one "u v t" edge per line (whitespace or, with
// -comma, comma separated; '#'/'%' comments ignored; ".gz" transparent).
// With -motif only that motif's count is printed; with -query a 3-edge
// motif spec (compact text or JSON form, see docs/QUERY.md) is compiled
// and counted; otherwise the full 6×6 matrix is written in the paper's
// Fig. 2 layout.
//
// -epsilon switches -query to the sampling estimator (docs/APPROX.md):
// the output is an estimate with a confidence interval instead of the
// exact count. -conf, -seed and -samples refine it and are only valid
// alongside -epsilon. Only 4-node path specs are sampled; every other spec
// is counted exactly, its interval zero wide.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hare"
	"hare/internal/buildinfo"
)

func main() {
	var (
		input   = flag.String("input", "", "edge-list file (required; .gz ok)")
		delta   = flag.Int64("delta", 600, "time window δ in the input's time units")
		workers = flag.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = sequential FAST)")
		thrd    = flag.Int("thrd", 0, "HARE degree threshold (0 = auto top-20, negative = flat)")
		only    = flag.String("motif", "", "print only this motif's count (e.g. M26)")
		queryF  = flag.String("query", "", `count a 3-edge motif spec (e.g. "a->b; b->c; c->a"; JSON form ok)`)
		relabel = flag.Bool("relabel", false, "relabel arbitrary node ids to a dense space")
		comma   = flag.Bool("comma", false, "treat commas as field separators")
		stats   = flag.Bool("stats", false, "print graph statistics before counting")
		check   = flag.Bool("check", false, "validate internal graph invariants after loading")
		loadW   = flag.Int("load-workers", 0, "parallel ingestion workers (0 = all CPUs)")
		epsilon = flag.Float64("epsilon", 0, "approximate -query with this relative-error target in (0,1); 0 = exact")
		conf    = flag.Float64("conf", 0, "confidence level for -epsilon intervals (0 = 0.95)")
		seed    = flag.Int64("seed", 0, "sampling seed for -epsilon")
		samples = flag.Int("samples", 0, "pin the -epsilon draw budget (0 = sized from epsilon)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("harecount", buildinfo.Version())
		return
	}
	if *input == "" {
		usageErr("-input is required")
	}
	if _, err := os.Stat(*input); err != nil {
		usageErr("-input: %v", err)
	}
	if *delta <= 0 {
		usageErr("-delta must be > 0 (got %d)", *delta)
	}
	if *workers < 0 {
		usageErr("-workers must be >= 0 (got %d; 0 = all CPUs)", *workers)
	}
	if *loadW < 0 {
		usageErr("-load-workers must be >= 0 (got %d; 0 = all CPUs)", *loadW)
	}
	var spec *hare.MotifSpec
	if *queryF != "" {
		if *only != "" {
			usageErr("-query and -motif are mutually exclusive")
		}
		var err error
		if spec, err = parseQuerySpec(*queryF); err != nil {
			usageErr("-query: %v", err)
		}
	}
	var approx *hare.ApproxOptions
	if *epsilon != 0 || *conf != 0 || *seed != 0 || *samples != 0 {
		if spec == nil {
			usageErr("-epsilon, -conf, -seed and -samples require -query")
		}
		if *epsilon <= 0 || *epsilon >= 1 {
			usageErr("-epsilon must be in (0, 1) (got %v)", *epsilon)
		}
		if *conf < 0 || *conf >= 1 {
			usageErr("-conf must be in (0, 1) (got %v; 0 = 0.95)", *conf)
		}
		if *samples < 0 {
			usageErr("-samples must be >= 0 (got %d)", *samples)
		}
		approx = &hare.ApproxOptions{
			Epsilon:    *epsilon,
			Confidence: *conf,
			Seed:       *seed,
			Samples:    *samples,
			Workers:    *workers,
		}
	}
	if err := run(*input, *delta, *workers, *thrd, *only, spec, approx, *relabel, *comma, *stats, *check, *loadW); err != nil {
		fmt.Fprintln(os.Stderr, "harecount:", err)
		os.Exit(1)
	}
}

// usageErr reports a flag-validation failure with usage text and exits 2.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "harecount: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// parseQuerySpec accepts both spec forms the server does: a leading '{'
// selects the JSON encoding, anything else the compact text grammar.
func parseQuerySpec(q string) (*hare.MotifSpec, error) {
	if strings.HasPrefix(strings.TrimSpace(q), "{") {
		return hare.ParseSpecJSON([]byte(q))
	}
	return hare.ParseSpec(q)
}

func run(input string, delta int64, workers, thrd int, only string, spec *hare.MotifSpec, approx *hare.ApproxOptions, relabel, comma, stats, check bool, loadWorkers int) error {
	g, err := hare.LoadFile(input, hare.LoadOptions{Relabel: relabel, Comma: comma, Workers: loadWorkers})
	if err != nil {
		return err
	}
	if check {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	if stats {
		st := hare.ComputeStats(g, 20)
		fmt.Printf("nodes=%d edges=%d self-loops-dropped=%d timespan=%d maxdeg=%d meandeg=%.2f gini=%.3f\n",
			st.Nodes, st.Edges, st.SelfLoops, st.TimeSpan, st.MaxDegree, st.MeanDegree, st.DegreeGini)
	}
	opts := []hare.Option{hare.WithWorkers(workers)}
	if thrd != 0 {
		opts = append(opts, hare.WithDegreeThreshold(thrd))
	}
	if spec != nil {
		start := time.Now()
		if approx != nil {
			res, err := hare.CountMotifApprox(g, spec, delta, *approx)
			if err != nil {
				return err
			}
			how := fmt.Sprintf("%d draws, %d/%d strata exact", res.Draws, res.ExactStrata, res.Strata)
			if res.Exact {
				how = fmt.Sprintf("exact count over %d nodes", res.Draws)
			}
			fmt.Printf("%s ≈ %.1f [%.1f, %.1f] at %g%% confidence (%s, in %v)\n",
				spec.Canonical(), res.Total.Estimate, res.Total.Low, res.Total.High,
				res.Confidence*100, how, time.Since(start).Round(time.Microsecond))
			return nil
		}
		n, err := hare.CountMotif(g, spec, delta, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("%s = %d (in %v)\n", spec.Canonical(), n, time.Since(start).Round(time.Microsecond))
		return nil
	}
	var label hare.Label
	if only != "" {
		label, err = hare.ParseLabel(only)
		if err != nil {
			return err
		}
		opts = append(opts, hare.WithOnly(label.Category()))
	}
	res, err := hare.Count(g, delta, opts...)
	if err != nil {
		return err
	}
	if only != "" {
		fmt.Printf("%s = %d (in %v, %d workers)\n", label, res.Matrix.At(label), res.Elapsed, res.Workers)
		return nil
	}
	res.Matrix.Write(os.Stdout)
	fmt.Printf("counted in %v with %d workers\n", res.Elapsed, res.Workers)
	return nil
}

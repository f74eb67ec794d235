package hare

import (
	"hare/internal/approx"
	"hare/internal/query"
)

// ApproxOptions configures the approximate counters. The zero value asks
// for the default target: a ±5% relative-error interval at 95% confidence
// (epsilon 0.05, confidence 0.95), sized automatically. See docs/APPROX.md
// for the estimator's normative specification.
type ApproxOptions struct {
	// Epsilon is the relative-error target in (0, 1); it sizes the sample
	// as ceil((z/epsilon)²). Zero means the 0.05 default. Tightening
	// epsilon grows the sample until it saturates the pivot domain, at
	// which point the estimate degrades gracefully to the exact count with
	// a zero-width interval.
	Epsilon float64
	// Confidence is the interval's coverage level in (0, 1); zero means
	// the 0.95 default.
	Confidence float64
	// Seed fixes the sampling streams. The same (graph, delta, knobs,
	// seed) always yields bit-identical estimates and intervals, at any
	// worker count.
	Seed int64
	// Samples, when positive, pins the draw budget directly and overrides
	// the epsilon-driven sizing. Budgets of at least a few hundred draws
	// are the calibrated regime; see docs/APPROX.md.
	Samples int
	// Workers bounds counting parallelism; zero or negative means all
	// CPUs. The estimate does not depend on it.
	Workers int
}

// ApproxResult is a finished approximate count: per-cell intervals (in the
// kernel's cell order) plus the total-count interval, with the sampling
// telemetry needed to judge it (draws performed, strata, how many strata
// were enumerated exactly).
type ApproxResult = approx.Result

// ApproxInterval is one estimated count with its confidence bounds.
type ApproxInterval = approx.Interval

func (o ApproxOptions) internal() approx.Options {
	return approx.Options{
		Epsilon:    o.Epsilon,
		Confidence: o.Confidence,
		Seed:       o.Seed,
		Samples:    o.Samples,
		Workers:    o.Workers,
	}
}

// CountStar4Approx answers an approximate 4-node star request with the
// exact count: the star/pair sweep behind CountStar4 is linear in each
// center's degree and measured no slower than a sample of centers, so
// sampling would buy nothing. Result.Cells holds the 8 direction patterns in
// Star4Counter order, each a zero-width interval; Result.Total is their sum;
// Result.Exact is set. The options are validated and echoed as for a
// sampled count.
func CountStar4Approx(g *Graph, delta Timestamp, o ApproxOptions) (*ApproxResult, error) {
	if g == nil {
		return nil, errNilGraph
	}
	if delta < 0 {
		return nil, errNegativeDelta(delta)
	}
	return approx.Star4(g, delta, o.internal())
}

// CountPath4Approx estimates the 4-node path counts by importance-sampled
// stratified sampling over structural-middle edges: the heaviest middles
// (by d(src)·d(dst)) land in saturated strata and are enumerated exactly,
// the tail is sampled without replacement, and each cell gets an unbiased
// estimate with a confidence interval. Result.Cells holds the 48-slot path
// counter (canonical labels carry the counts, as in Path4Counter);
// Result.Total sums them. Estimates are deterministic: bit-identical for the
// same options at any worker count.
func CountPath4Approx(g *Graph, delta Timestamp, o ApproxOptions) (*ApproxResult, error) {
	if g == nil {
		return nil, errNilGraph
	}
	if delta < 0 {
		return nil, errNegativeDelta(delta)
	}
	return approx.Path4(g, delta, o.internal())
}

// CountMotifApprox estimates a compiled motif spec's count. A 4-node path
// spec is sampled by its middle edge, as CountPath4Approx samples; every
// other spec (stars, pairs, triangles) compiles to a node-pivot plan and is
// counted exactly, as CountStar4Approx is. Result.Total is the answer;
// Result.Cells has the single series. Sparse path specs whose exact count is
// a handful of instances are better served by CountMotif — rare-event
// tallies are below the calibrated regime (docs/APPROX.md).
func CountMotifApprox(g *Graph, spec *MotifSpec, delta Timestamp, o ApproxOptions) (*ApproxResult, error) {
	if g == nil {
		return nil, errNilGraph
	}
	if spec == nil {
		return nil, temporalError("nil spec")
	}
	if delta < 0 {
		return nil, errNegativeDelta(delta)
	}
	return approx.Query(g, query.Compile(spec), delta, o.internal())
}

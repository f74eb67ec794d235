// Package approx estimates the 4-node path counts and the counts of
// compiled path specs by deterministic stratified importance sampling, with
// per-cell normal confidence intervals derived from across-stratum Welford
// variance. The node-pivot families (4-node stars, and star, pair and
// triangle specs) have exact kernels no slower than a sample of them, so
// their approximate requests are answered exactly (Exact).
//
// The estimator rides the same structural fact as the exact parallel
// counters and the shard tier: every path instance has a unique pivot, its
// structural-middle edge, so the exact count is a sum of per-pivot tallies
// over a contiguous ID domain. Instead of evaluating every pivot, the plan
// splits the domain into contiguous strata, sizes each stratum's draw
// budget by a degree-based variance proxy (largest-remainder allocation),
// and samples pivot IDs uniformly within each stratum with a per-stratum
// seeded RNG. A stratum whose allocation reaches its size is enumerated
// exactly (zero variance) — hubs that would dominate the variance are
// counted, not sampled.
//
// Everything is a pure function of (graph shape, knobs): the plan, the
// per-stratum draws, and the finishing sums are bit-identical at any
// worker count and across the shard wire. docs/APPROX.md is the normative
// spec.
package approx

import (
	"errors"
	"fmt"
	"math"

	"hare/internal/temporal"
)

// Defaults for the two knobs; the zero Options value selects both.
const (
	DefaultEpsilon    = 0.05
	DefaultConfidence = 0.95
)

const (
	// maxStrata caps the stratum count: strata are the shard scatter unit
	// and the finishing sum's sequential merge, so the cap bounds both the
	// wire payload and the merge cost. Geometric slicing needs only
	// ~log2(domain) strata, so the cap rarely binds.
	maxStrata = 64
	// drawFloor is the minimum sample per unsaturated stratum.
	drawFloor = 8
)

// Typed knob rejections, matched with errors.Is by the API and serving
// tiers.
var (
	ErrEpsilon    = errors.New("approx: epsilon must be in (0, 1)")
	ErrConfidence = errors.New("approx: confidence must be in (0, 1)")
	ErrSamples    = errors.New("approx: samples must be >= 0")
)

// Options are the estimator knobs. The zero value asks for a 5% target
// relative standard error at 95% confidence with seed 0 and automatic
// sizing — the serving tier's `epsilon=0.05` default.
type Options struct {
	// Epsilon is the target relative standard error of the total count
	// (0 selects DefaultEpsilon). The automatic draw budget is
	// ceil((z/epsilon)^2) — the sample size at which a unit-coefficient-
	// of-variation series meets the target at the chosen confidence.
	Epsilon float64
	// Confidence is the CI level in (0, 1); 0 selects DefaultConfidence.
	Confidence float64
	// Seed derives every per-stratum RNG stream. Same seed, same knobs,
	// same graph ⇒ identical estimate and CI at any worker count.
	Seed int64
	// Samples overrides the automatic draw budget when > 0 (tests and
	// benchmarks pin it; the serving tier exposes it as samples=).
	Samples int
	// Workers is the estimator's goroutine count (<= 0 selects
	// GOMAXPROCS). A scheduling knob only: never part of plans, keys, or
	// results.
	Workers int
}

// Validate reports the first knob violation, nil if the options are
// usable.
func (o Options) Validate() error {
	if o.Epsilon < 0 || o.Epsilon >= 1 || math.IsNaN(o.Epsilon) {
		return fmt.Errorf("%w (got %v)", ErrEpsilon, o.Epsilon)
	}
	if o.Confidence < 0 || o.Confidence >= 1 || math.IsNaN(o.Confidence) {
		return fmt.Errorf("%w (got %v)", ErrConfidence, o.Confidence)
	}
	if o.Samples < 0 {
		return fmt.Errorf("%w (got %d)", ErrSamples, o.Samples)
	}
	return nil
}

func (o Options) epsilon() float64 {
	if o.Epsilon > 0 {
		return o.Epsilon
	}
	return DefaultEpsilon
}

func (o Options) confidence() float64 {
	if o.Confidence > 0 {
		return o.Confidence
	}
	return DefaultConfidence
}

// Stratum is one contiguous slice of the plan's weight-ranked pivot
// order. Ranking by weight is what makes stratification effective on the
// hub-skewed graphs the estimator exists for: pivots of similar cost (and
// therefore similar tally magnitude) share a stratum, the hub strata
// carry most of the draw budget, and the very top typically saturates —
// hubs are enumerated exactly, never extrapolated from a lucky miss.
type Stratum struct {
	// Lo, Hi bound the half-open rank range [Lo, Hi) into the plan's
	// pivot permutation (weight-descending, ID ascending on ties).
	Lo, Hi int
	// Draws is the number of evaluations: a simple random sample without
	// replacement when !Exact, the full enumeration (Hi-Lo) when Exact.
	Draws int
	// Exact marks a saturated stratum — its allocation reached its size,
	// so it is enumerated in ID order and contributes zero variance.
	Exact bool
	// Seed seeds this stratum's private RNG stream (ignored when Exact).
	Seed int64
}

// Plan is a fully materialized sampling plan: strata bounds, per-stratum
// draw budgets and seeds, and the finishing z-quantile. It is a pure
// function of (domain, weights, options) — the coordinator and every
// shard worker rebuild byte-identical plans from the wire knobs — and is
// immutable and safe for concurrent use.
type Plan struct {
	// Domain is the pivot-ID domain size ([0, Domain) is partitioned).
	Domain int
	// Cells is the kernel's cell count (48 path slots, 1 query).
	Cells int
	// Budget is the requested total draw budget after clamping to
	// [drawFloor, Domain]; saturation caps may realize fewer evaluations.
	Budget int
	// Z is the two-sided normal quantile for the confidence level.
	Z float64
	// Epsilon and Confidence echo the resolved knobs.
	Epsilon, Confidence float64
	// Seed echoes the plan seed the strata streams derive from.
	Seed int64
	// Strata partitions the ranks [0, Domain) in ascending rank order.
	Strata []Stratum

	// perm maps rank -> pivot ID (weight descending, ID ascending on
	// ties); NewPlan's is the graph's kept temporal.PivotRanking, shared
	// read-only by every plan on that graph. Never serialized: every node
	// rebuilds it deterministically from the graph via NewPlan, so only
	// knobs cross the wire.
	perm []int32
}

// PivotAt resolves rank r to its pivot ID.
func (p *Plan) PivotAt(r int) int { return int(p.perm[r]) }

// ExactStrata counts the saturated (exactly enumerated) strata.
func (p *Plan) ExactStrata() int {
	n := 0
	for i := range p.Strata {
		if p.Strata[i].Exact {
			n++
		}
	}
	return n
}

// BuildPlan materializes the sampling plan for a pivot domain of the given
// size, with weight(id) the nonnegative per-pivot cost/variance proxy: it
// ranks the pivots (temporal.RankByWeight) and allocates the draws.
// Deterministic: equal inputs produce equal plans, field for field. NewPlan
// is the same plan for the edge pivots of a graph, read from the graph's
// kept ranking.
func BuildPlan(domain, cells int, weight func(id int) float64, o Options) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// The per-pivot weights are sanitized once: negative/NaN/Inf proxies
	// count as 0, and every pivot carries a +1 floor so no stratum's share
	// vanishes.
	wts := make([]float64, max(domain, 0))
	for id := range wts {
		w := weight(id)
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			w = 0
		}
		wts[id] = w + 1
	}
	// Rank the pivots by weight (descending; ID breaks ties, so the
	// permutation is a pure function of the weights).
	perm := temporal.RankByWeight(wts)
	return allocate(domain, cells, perm, func(lo, hi int) float64 {
		w := 0.0
		for _, id := range perm[lo:hi] {
			w += wts[id]
		}
		return w
	}, o), nil
}

// allocate sizes the budget, slices the ranked pivots perm into strata and
// allocates the draws, given sum(lo, hi), the weight of the ranks [lo, hi)
// summed in rank order. o must be valid.
func allocate(domain, cells int, perm []int32, sum func(lo, hi int) float64, o Options) *Plan {
	eps, conf := o.epsilon(), o.confidence()
	z := zQuantile((1 + conf) / 2)
	p := &Plan{Domain: domain, Cells: cells, Z: z, Epsilon: eps, Confidence: conf, Seed: o.Seed}
	if domain <= 0 {
		return p
	}
	p.perm = perm

	// Draw budget: explicit override, else the CLT sizing ceil((z/eps)^2),
	// clamped to [2, domain] — a budget at the domain size degenerates to
	// exact enumeration (every stratum saturates). The sizing is clamped in
	// float: for a tiny epsilon it exceeds any int.
	budget := o.Samples
	if budget <= 0 {
		budget = domain
		if b := math.Ceil((z / eps) * (z / eps)); b < float64(domain) {
			budget = int(b)
		}
	}
	if budget < drawFloor {
		budget = drawFloor
	}
	if budget > domain {
		budget = domain
	}
	p.Budget = budget

	// Stratum count cap: the draw floor must be affordable per stratum.
	sMax := maxStrata
	if sMax > budget/drawFloor {
		sMax = budget / drawFloor
	}
	if sMax > domain {
		sMax = domain
	}
	if sMax < 1 {
		sMax = 1
	}

	// Geometric rank slices from the head: sizes 1, 2, 4, … On a skewed
	// graph the ranked head holds the dominant pivots, so the head strata
	// are tiny, win the weight allocation, saturate under the waterfall,
	// and are enumerated exactly — no dominant pivot is ever left to
	// sampling luck (a single missed hub can hold most of the count). The
	// last slice absorbs the tail when the cap bites; on a uniform graph
	// the weights are flat and the tail slice simply keeps most of the
	// budget.
	bounds := []int{0}
	for size := 1; len(bounds) < sMax; size *= 2 {
		next := bounds[len(bounds)-1] + size
		if next >= domain {
			break
		}
		bounds = append(bounds, next)
	}
	strata := make([]Stratum, len(bounds))
	weights := make([]float64, len(bounds))
	for i := range strata {
		hi := domain
		if i+1 < len(bounds) {
			hi = bounds[i+1]
		}
		strata[i] = Stratum{Lo: bounds[i], Hi: hi, Seed: mixSeed(o.Seed, i)}
		weights[i] = sum(bounds[i], hi)
	}

	// Allocation: a draw floor per stratum (the variance estimate needs a
	// few degrees of freedom to be stable — 2 draws give it exactly one),
	// the remainder by largest-remainder apportionment over the weights,
	// then
	// a saturation waterfall — a stratum allocated its full size is capped
	// (it will enumerate exactly), and the excess re-apportions over the
	// still-unsaturated strata until the budget is placed or everything
	// saturates. At budget == domain the waterfall converges to full
	// enumeration: epsilon small enough degrades gracefully to exact.
	remaining := budget
	for i := range strata {
		base := drawFloor
		if n := strata[i].Hi - strata[i].Lo; base > n {
			base = n
		}
		strata[i].Draws = base
		remaining -= base
	}
	for remaining > 0 {
		var elig []int
		var eligW []float64
		for i := range strata {
			if strata[i].Draws < strata[i].Hi-strata[i].Lo {
				elig = append(elig, i)
				eligW = append(eligW, weights[i])
			}
		}
		if len(elig) == 0 {
			break
		}
		for j, add := range apportion(remaining, eligW) {
			strata[elig[j]].Draws += add
		}
		remaining = 0
		for i := range strata {
			if n := strata[i].Hi - strata[i].Lo; strata[i].Draws > n {
				remaining += strata[i].Draws - n
				strata[i].Draws = n
			}
		}
	}
	for i := range strata {
		if strata[i].Draws == strata[i].Hi-strata[i].Lo {
			strata[i].Exact = true
		}
	}
	p.Strata = strata
	return p
}

// apportion splits units integer-exactly in proportion to weights (all
// > 0) by largest-remainder: floor every share, then hand the leftover
// units to the largest fractional remainders, ties to the lower index.
// Deterministic; the quadratic remainder scan is trivial at <= maxStrata.
func apportion(units int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	frac := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		q := float64(units) * w / total
		out[i] = int(q)
		frac[i] = q - float64(out[i])
		assigned += out[i]
	}
	for left := units - assigned; left > 0; left-- {
		best := -1
		for i := range frac {
			if frac[i] >= 0 && (best < 0 || frac[i] > frac[best]) {
				best = i
			}
		}
		out[best]++
		frac[best] = -1
	}
	return out
}

// mixSeed derives stratum i's RNG seed from the plan seed with a
// splitmix64 finalization step: decorrelated streams, pure arithmetic,
// identical on every worker that rebuilds the plan.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// zQuantile is the standard normal inverse CDF by Acklam's rational
// approximation (|relative error| < 1.15e-9 on (0,1)): deterministic,
// dependency-free, and identical across platforms for the finishing math.
func zQuantile(p float64) float64 {
	const (
		a1, a2, a3 = -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02
		a4, a5, a6 = 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00
		b1, b2, b3 = -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02
		b4, b5     = 6.680131188771972e+01, -1.328068155288572e+01
		c1, c2, c3 = -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00
		c4, c5, c6 = -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00
		d1, d2, d3 = 7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00
		d4         = 3.754408661907416e+00
		plow       = 0.02425
	)
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	}
}

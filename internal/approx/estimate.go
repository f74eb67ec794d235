package approx

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/query"
	"hare/internal/temporal"
)

// Moments is one stratum's Welford state over the sampled per-pivot
// series: Cells per-cell series plus one trailing per-pivot-total series
// (index Cells). It is the shard wire payload — raw float64 means and M2s
// round-trip exactly through JSON, so a coordinator finishing remote
// moments is bit-identical to finishing local ones.
type Moments struct {
	// Draws is the number of evaluations folded in.
	Draws int `json:"draws"`
	// Exact marks a saturated stratum (full enumeration, zero variance).
	Exact bool `json:"exact,omitempty"`
	// Sum is the plain per-series sum of the evaluations — the point
	// estimate's numerator. Tallies are integers, so an exact stratum's
	// Sum is its count with no float error (exact mode stays exact).
	Sum []float64 `json:"sum"`
	// Mean and M2 are the running Welford mean and sum of squared
	// deviations per series; M2 feeds the variance, Mean exists to update
	// it stably.
	Mean []float64 `json:"mean"`
	M2   []float64 `json:"m2"`
}

func newMoments(series int) Moments {
	return Moments{
		Sum:  make([]float64, series),
		Mean: make([]float64, series),
		M2:   make([]float64, series),
	}
}

// observe folds one evaluation in, Welford-style (numerically stable,
// order-deterministic: the draw sequence is fixed by the stratum seed).
func (m *Moments) observe(y []float64) {
	m.Draws++
	n := float64(m.Draws)
	for i, v := range y {
		m.Sum[i] += v
		d := v - m.Mean[i]
		m.Mean[i] += d / n
		m.M2[i] += d * (v - m.Mean[i])
	}
}

// EstimateStrata evaluates the plan's strata with indices in [lo, hi)
// (clamped to [0, len(plan.Strata))) and returns their moments in stratum
// order — the per-shard work unit of the scatter tier, and the whole job
// when called with the full range. Each stratum is one work unit under
// engine.Dispatch; its moments are a pure function of (g, kernel, delta,
// stratum), so the result is bit-identical at any worker count. done, once
// closed, stops the run at the next stratum, and EstimateStrata returns nil;
// nil never stops.
func EstimateStrata(g *temporal.Graph, k Kernel, delta temporal.Timestamp, plan *Plan, workers, lo, hi int, done <-chan struct{}) []Moments {
	if lo < 0 {
		lo = 0
	}
	if hi > len(plan.Strata) {
		hi = len(plan.Strata)
	}
	if lo >= hi {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	series := plan.Cells + 1
	out := make([]Moments, hi-lo)
	scratch := make([]*fast.Scratch, workers)
	bufs := make([][]float64, workers)
	for w := range scratch {
		scratch[w] = fast.GetScratch(g.NumNodes())
		defer fast.PutScratch(scratch[w])
		bufs[w] = make([]float64, series)
	}
	engine.Dispatch(workers, 1, hi-lo, done, func(w, a, b int) {
		for i := a; i < b; i++ {
			out[i] = sampleStratum(g, k, delta, plan, lo+i, scratch[w], bufs[w])
		}
	})
	if engine.Stopped(done) {
		return nil
	}
	return out
}

// sampleStratum draws (or enumerates) one stratum, resolving ranks to
// pivot IDs through the plan's weight permutation. The RNG stream is the
// stratum's own, so the draw sequence — and therefore the moments — do not
// depend on which worker runs the stratum or on any other stratum.
func sampleStratum(g *temporal.Graph, k Kernel, delta temporal.Timestamp, plan *Plan, idx int, scratch *fast.Scratch, buf []float64) Moments {
	st := &plan.Strata[idx]
	cells := len(buf) - 1
	m := newMoments(len(buf))
	m.Exact = st.Exact
	eval := func(rank int) {
		k.Eval(g, delta, plan.PivotAt(rank), scratch, buf[:cells])
		total := 0.0
		for _, v := range buf[:cells] {
			total += v
		}
		buf[cells] = total
		m.observe(buf)
	}
	if st.Exact {
		for r := st.Lo; r < st.Hi; r++ {
			eval(r)
		}
		return m
	}
	// Simple random sample without replacement, by partial Fisher–Yates
	// over the stratum's ranks: no draw is wasted re-evaluating a pivot,
	// the dominant pivot is in-sample with probability Draws/n, and the
	// finite-population correction in Finish is honest.
	rng := rand.New(rand.NewSource(st.Seed))
	n := st.Hi - st.Lo
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(st.Lo + i)
	}
	for j := 0; j < st.Draws; j++ {
		swap := j + rng.Intn(n-j)
		ranks[j], ranks[swap] = ranks[swap], ranks[j]
		eval(int(ranks[j]))
	}
	return m
}

// Interval is one estimated count with its confidence bounds.
type Interval struct {
	// Estimate is the unbiased point estimate.
	Estimate float64 `json:"estimate"`
	// Low and High bound the normal CI at the plan's confidence level;
	// Low is clamped at 0 (counts are nonnegative).
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

// Result is a finished estimate: per-cell intervals in kernel cell order
// plus the total-count interval (its variance is the total series' own,
// not a sum of cell variances — cells are correlated within a pivot).
type Result struct {
	Cells       []Interval
	Total       Interval
	Draws       int // evaluations actually performed
	Strata      int
	ExactStrata int
	Epsilon     float64
	Confidence  float64
	// Exact marks an answer the exact kernel gave (see Exact): no strata,
	// every pivot counted, every interval zero wide.
	Exact bool
}

// Exact finishes an exact count as a Result. The node-pivot families —
// 4-node stars and the center plans of star, pair and triangle specs — are
// answered this way in approximate mode: their exact range kernels (the
// star/pair sweep, FAST-Tri) cost no more than a sample of them would. Each
// interval is its cell's count, zero wide; Draws is the nodes counted, the
// whole pivot domain; the knobs, which must be valid (Options.Validate), are
// echoed as a sample's are.
func Exact(cells []uint64, nodes int, o Options) *Result {
	res := &Result{Cells: make([]Interval, len(cells)), Draws: nodes,
		Epsilon: o.epsilon(), Confidence: o.confidence(), Exact: true}
	var total uint64
	for i, c := range cells {
		v := float64(c)
		res.Cells[i] = Interval{Estimate: v, Low: v, High: v}
		total += c
	}
	t := float64(total)
	res.Total = Interval{Estimate: t, Low: t, High: t}
	return res
}

// Finish folds per-stratum moments into the estimate and CIs, iterating
// strata in index order with plain float64 sums — the deterministic merge
// the bit-identity contract requires. moments must align one-to-one with
// plan.Strata (the coordinator concatenates shard parts in shard order,
// which is stratum order).
func Finish(plan *Plan, moments []Moments) (*Result, error) {
	if len(moments) != len(plan.Strata) {
		return nil, fmt.Errorf("approx: %d moment sets for %d strata", len(moments), len(plan.Strata))
	}
	series := plan.Cells + 1
	res := &Result{
		Cells:       make([]Interval, plan.Cells),
		Strata:      len(plan.Strata),
		ExactStrata: plan.ExactStrata(),
		Epsilon:     plan.Epsilon,
		Confidence:  plan.Confidence,
	}
	est := make([]float64, series)
	vr := make([]float64, series)
	// dfDen accumulates Σ v_s²/(m_s−1) per series for Welch–Satterthwaite:
	// with few sampled strata the variance estimate itself is noisy, and
	// the t-quantile at the effective df widens the interval accordingly.
	dfDen := make([]float64, series)
	for s := range moments {
		m := &moments[s]
		st := &plan.Strata[s]
		if len(m.Sum) != series || len(m.Mean) != series || len(m.M2) != series {
			return nil, fmt.Errorf("approx: stratum %d has %d series, plan wants %d", s, len(m.Sum), series)
		}
		if m.Draws != st.Draws || m.Exact != st.Exact {
			return nil, fmt.Errorf("approx: stratum %d draws %d/exact=%v, plan wants %d/%v",
				s, m.Draws, m.Exact, st.Draws, st.Exact)
		}
		res.Draws += m.Draws
		n := float64(st.Hi - st.Lo)
		md := float64(m.Draws)
		for i := 0; i < series; i++ {
			if m.Exact {
				// A saturated stratum's Sum is its exact count: no
				// reweighting, no float division, zero variance.
				est[i] += m.Sum[i]
				continue
			}
			// Horvitz–Thompson over a without-replacement uniform sample:
			// the stratum total is n·mean, estimated as n·Sum/draws.
			est[i] += n * m.Sum[i] / md
			if m.Draws >= 2 {
				// Deliberately conservative variance: n²·s²/m is the
				// with-replacement formula, a strict upper bound on the
				// SRSWOR variance (the finite-population correction is
				// dropped). Sample variance under-measures skewed tallies
				// in small samples; the slack buys the coverage guarantee
				// the calibration test enforces. Saturated strata are
				// exact either way.
				v := n * n * (m.M2[i] / (md - 1)) / md
				vr[i] += v
				dfDen[i] += v * v / (md - 1)
			}
		}
	}
	sampled := res.ExactStrata < res.Strata
	for i := 0; i < series; i++ {
		q := plan.Z
		if dfDen[i] > 0 {
			df := vr[i] * vr[i] / dfDen[i]
			q = tQuantile((1+plan.Confidence)/2, df)
		}
		if sampled && vr[i] < est[i] {
			// Poisson-scale variance floor (var >= estimate): a sampled
			// count cannot honestly claim sub-shot-noise precision — when
			// the head strata saturate and the thin sampled tail shows
			// near-zero spread, the across-strata variance collapses while
			// a few residual instances in the unseen tail remain
			// perfectly plausible. Fully saturated runs (every stratum
			// exact) keep their zero-width interval.
			vr[i] = est[i]
		}
		half := q * math.Sqrt(vr[i])
		iv := Interval{Estimate: est[i], Low: est[i] - half, High: est[i] + half}
		if iv.Low < 0 {
			iv.Low = 0
		}
		if i < plan.Cells {
			res.Cells[i] = iv
		} else {
			res.Total = iv
		}
	}
	return res, nil
}

// tQuantile is the Student-t inverse CDF at df degrees of freedom, via the
// Cornish–Fisher expansion around the normal quantile (Peiser). df is
// clamped at 1; the expansion's error is a few percent there and vanishes
// as df grows — conservative enough for interval widening, deterministic,
// dependency-free.
func tQuantile(p, df float64) float64 {
	if df < 1 {
		df = 1
	}
	z := zQuantile(p)
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	return z + g1/df + g2/(df*df) + g3/(df*df*df)
}

// NewPlan builds the sampling plan for kernel k on g — the single plan
// constructor every tier shares, so a coordinator and its workers always
// agree on strata, budgets, and seeds. Every kernel's pivots are g's edges,
// weighted by temporal.PivotWeight (d(src)·d(dst) plus the +1 floor), so the
// ranking is the graph's kept temporal.PivotRanking, built by its first
// sampled request: after it a plan costs the budget, the strata and one
// pass summing each stratum's weight in rank order. The plan equals
// BuildPlan's over the degree products, field for field.
func NewPlan(g *temporal.Graph, k Kernel, o Options) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	perm := temporal.PivotRanking(g)
	return allocate(k.Domain(g), k.Cells(), perm, func(lo, hi int) float64 {
		w := 0.0
		for _, e := range perm[lo:hi] {
			w += temporal.PivotWeight(g, e)
		}
		return w
	}, o), nil
}

// Estimate runs the full plan locally: build, sample, finish.
func Estimate(g *temporal.Graph, k Kernel, delta temporal.Timestamp, o Options) (*Result, error) {
	plan, err := NewPlan(g, k, o)
	if err != nil {
		return nil, err
	}
	moments := EstimateStrata(g, k, delta, plan, o.Workers, 0, len(plan.Strata), nil)
	return Finish(plan, moments)
}

// Star4 answers the 8-cell star counter exactly (cells in motif.PairDirs
// order; see Exact).
func Star4(g *temporal.Graph, delta temporal.Timestamp, o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	s4 := higher.CountStar4(g, delta, higher.Options{Workers: o.Workers})
	return Exact(s4[:], g.NumNodes(), o), nil
}

// Path4 estimates the 48-slot path counter (canonical labels carry the
// counts; see higher.AllPathLabels).
func Path4(g *temporal.Graph, delta temporal.Timestamp, o Options) (*Result, error) {
	return Estimate(g, PathKernel{}, delta, o)
}

// Query estimates a compiled plan's total count (one cell): a path plan by
// sampling its middle edges, a center plan exactly (see Exact).
func Query(g *temporal.Graph, p *query.Plan, delta temporal.Timestamp, o Options) (*Result, error) {
	if p.Kind() == query.PlanEdge {
		return Estimate(g, PlanKernel{Plan: p}, delta, o)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return Exact([]uint64{p.Execute(g, delta, query.Options{Workers: o.Workers})}, g.NumNodes(), o), nil
}

package nullmodel

import (
	"fmt"
	"math"
	"sync"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// aggChunk is the number of consecutive samples aggregated into one moment
// state. It is a fixed constant — not a tunable — because it defines the
// deterministic aggregation tree: each chunk's Welford state depends only on
// the sample indices it covers (per-sample seeds are index-derived), and
// chunk states merge in index order, so the resulting floating-point
// statistics are bit-identical at any worker count. Small enough that even
// modest ensembles (the default 20 samples) fan out across workers; the
// cost is one ~1.5 KiB moment state per chunk.
const aggChunk = 4

// DefaultSamples is the ensemble size when none is requested — here, in
// Options.Trials, in a served sig request and at the shard coordinator.
const DefaultSamples = 20

// MaxSamples bounds an ensemble — here, in Options.Trials, in a served sig
// request and in a shard sub-request's sample range. The sample matrices are
// held in memory until they are folded (288 B each), so an unbounded count
// would let one request exhaust it.
const MaxSamples = 10000

// Ensemble generates and counts N null samples concurrently (see
// SampleMatrices): sample t draws from seed Seed + t·7919 regardless of
// which worker runs it, so the ensemble is a pure function of
// (graph, delta, Model, Samples, Seed).
type Ensemble struct {
	// Model is the null model (default TimeShuffle).
	Model Model
	// Samples is the number of null samples (default DefaultSamples, at most
	// MaxSamples).
	Samples int
	// Seed feeds the per-sample deterministic RNG chain.
	Seed int64
	// Workers is the parallelism for sampling/counting and for the
	// real-graph count (0 = all CPUs). It never changes the statistics.
	Workers int
}

// sampleSeed derives sample t's RNG seed. The 7919 stride keeps the chain
// of the original sequential significance loop, so ensembles reproduce its
// samples exactly.
func sampleSeed(seed int64, t int) int64 { return seed + int64(t)*7919 }

// moments accumulates per-motif count moments (Welford) plus tail counts
// for empirical p-values over a set of samples.
type moments struct {
	n    float64
	mean [6][6]float64
	m2   [6][6]float64
	ge   [6][6]int64 // samples with null count >= real
	le   [6][6]int64 // samples with null count <= real
}

// observe folds one sample's count matrix into the state (Welford update).
func (s *moments) observe(m, real *motif.Matrix) {
	s.n++
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			v := float64(m[i][j])
			d := v - s.mean[i][j]
			s.mean[i][j] += d / s.n
			s.m2[i][j] += d * (v - s.mean[i][j])
			if m[i][j] >= real[i][j] {
				s.ge[i][j]++
			}
			if m[i][j] <= real[i][j] {
				s.le[i][j]++
			}
		}
	}
}

// merge folds another state into s (Chan et al. parallel-variance combine).
// Merging chunk states in a fixed order keeps the result deterministic.
func (s *moments) merge(o *moments) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			d := o.mean[i][j] - s.mean[i][j]
			s.m2[i][j] += o.m2[i][j] + d*d*s.n*o.n/n
			s.mean[i][j] += d * o.n / n
			s.ge[i][j] += o.ge[i][j]
			s.le[i][j] += o.le[i][j]
		}
	}
	s.n = n
}

// Run counts motifs in g and in Samples null samples, returning per-motif
// statistics: mean, standard deviation, z-scores, and empirical tail
// p-values. It is SampleMatrices over [0, Samples) folded by
// ReportFromSamples — the same two halves the shard tier runs on different
// machines — so results are bit-identical for a fixed (Model, Samples, Seed)
// at any Workers value and any split.
func (e *Ensemble) Run(g *temporal.Graph, delta temporal.Timestamp) (*Report, error) {
	samples := e.Samples
	if samples <= 0 {
		samples = DefaultSamples
	}
	mats, err := SampleMatrices(g, delta, e.Model, e.Seed, 0, samples, e.Workers)
	if err != nil {
		return nil, err
	}
	real := engine.Count(g, delta, engine.Options{Workers: e.Workers}).ToMatrix()
	return ReportFromSamples(e.Model, real, mats, e.Workers)
}

// finishReport merges the per-chunk moment states in index order — the
// deterministic aggregation tree — and derives the report statistics.
func finishReport(rep *Report, chunkStats []moments) {
	var total moments
	for c := range chunkStats {
		total.merge(&chunkStats[c])
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			rep.Mean[i][j] = total.mean[i][j]
			variance := total.m2[i][j] / total.n
			if variance < 0 {
				variance = 0
			}
			rep.Std[i][j] = math.Sqrt(variance)
			rep.PUpper[i][j] = (1 + float64(total.ge[i][j])) / (total.n + 1)
			rep.PLower[i][j] = (1 + float64(total.le[i][j])) / (total.n + 1)
		}
	}
}

// SampleMatrices draws and counts the null samples with indices [lo, hi)
// and returns their exact count matrices in index order. Sample t draws
// from seed + t·7919 whichever call and worker produces it, so any
// partition of [0, Samples) across processes reproduces exactly the
// matrices a single Ensemble.Run observes — the worker half of the
// scatter/gather significance path (internal/shard). Each worker owns an
// in-place Sampler (one scratch graph reused across its samples) and a FAST
// scratch, and counts a sample with the sequential algorithms: parallelism
// lives across samples, not within one. workers bounds local parallelism
// and never changes the matrices.
func SampleMatrices(g *temporal.Graph, delta temporal.Timestamp, model Model,
	seed int64, lo, hi, workers int) ([]motif.Matrix, error) {
	if g == nil {
		return nil, fmt.Errorf("nullmodel: nil graph")
	}
	if delta < 0 {
		return nil, fmt.Errorf("nullmodel: negative δ (%d)", delta)
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("nullmodel: invalid sample range [%d, %d)", lo, hi)
	}
	if hi > MaxSamples {
		return nil, fmt.Errorf("nullmodel: sample range [%d, %d) exceeds the %d-sample limit", lo, hi, MaxSamples)
	}
	n := hi - lo
	out := make([]motif.Matrix, n)
	if n == 0 {
		return out, nil
	}
	w := engine.Options{Workers: workers}.EffectiveWorkers()
	if w > n {
		w = n
	}
	samplers := make([]*Sampler, w)
	scratch := make([]*fast.Scratch, w)
	for i := 0; i < w; i++ {
		samplers[i] = NewSampler(g, model)
		scratch[i] = fast.NewScratch()
		scratch[i].Grow(g.NumNodes())
	}
	var (
		errMu  sync.Mutex
		runErr error
	)
	engine.Dispatch(w, 1, n, func(w, a, b int) {
		for i := a; i < b; i++ {
			sg, err := samplers[w].Sample(sampleSeed(seed, lo+i))
			if err != nil { // unknown model: first error wins, workers drain
				errMu.Lock()
				if runErr == nil {
					runErr = err
				}
				errMu.Unlock()
				return
			}
			var counts motif.Counts
			fast.CountInto(sg, delta, &counts, scratch[w])
			out[i] = counts.ToMatrix()
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

// ReportFromSamples assembles the ensemble report from already-counted
// sample matrices: samples[t] must be the count matrix of null sample t
// (the SampleMatrices output for [0, len(samples))). The matrices fold into
// fixed-size aggregation chunks, observed in sample-index order and merged
// in chunk-index order, so the floating-point statistics depend only on
// the model, seed chain and sample count, never on who counted what — the
// gather half of the scatter/gather significance path, and of Ensemble.Run.
// workers is the ensemble's parallelism (<= 0 = all CPUs); Report.Workers
// records it clamped to the aggregation chunks, the granularity at which the
// statistics could be folded concurrently (informational). len(samples) must
// be >= 1.
func ReportFromSamples(model Model, real motif.Matrix, samples []motif.Matrix, workers int) (*Report, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("nullmodel: no sample matrices")
	}
	chunkStats := make([]moments, (len(samples)+aggChunk-1)/aggChunk)
	workers = min(engine.Options{Workers: workers}.EffectiveWorkers(), len(chunkStats))
	rep := &Report{Model: model, Trials: len(samples), Workers: workers, Real: real}
	for t := range samples {
		chunkStats[t/aggChunk].observe(&samples[t], &rep.Real)
	}
	finishReport(rep, chunkStats)
	return rep, nil
}

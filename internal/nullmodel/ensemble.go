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

// Ensemble generates and counts N null samples concurrently. Each worker
// owns an in-place Sampler (one scratch graph reused across its samples)
// and a FAST scratch; sample t draws from seed Seed + t·7919 regardless of
// which worker runs it, so the ensemble is a pure function of
// (graph, delta, Model, Samples, Seed).
type Ensemble struct {
	// Model is the null model (default TimeShuffle).
	Model Model
	// Samples is the number of null samples (default 20).
	Samples int
	// Seed feeds the per-sample deterministic RNG chain.
	Seed int64
	// Workers is the parallelism for sampling/counting and for the
	// real-graph count (0 = all CPUs). It never changes the statistics.
	Workers int
}

func (e *Ensemble) samples() int {
	if e.Samples > 0 {
		return e.Samples
	}
	return 20
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

// countMatrix counts one sample with the sequential FAST algorithms
// (parallelism lives across samples, not within one), reusing the worker's
// counter and scratch.
func countMatrix(g *temporal.Graph, delta temporal.Timestamp,
	counts *motif.Counts, s *fast.Scratch) motif.Matrix {
	*counts = motif.Counts{}
	for u := 0; u < g.NumNodes(); u++ {
		fast.CountStarPairNode(g, temporal.NodeID(u), delta, counts, s)
		fast.CountTriNode(g, temporal.NodeID(u), delta, &counts.Tri, true)
	}
	return counts.ToMatrix()
}

// Run counts motifs in g and in Samples null samples, returning per-motif
// statistics: mean, standard deviation, z-scores, and empirical tail
// p-values. Results are bit-identical for a fixed (Model, Samples, Seed)
// at any Workers value.
func (e *Ensemble) Run(g *temporal.Graph, delta temporal.Timestamp) (*Report, error) {
	if g == nil {
		return nil, fmt.Errorf("nullmodel: nil graph")
	}
	if delta < 0 {
		return nil, fmt.Errorf("nullmodel: negative δ (%d)", delta)
	}
	samples := e.samples()
	rep := &Report{Model: e.Model, Trials: samples}
	rep.Real = engine.Count(g, delta, engine.Options{Workers: e.Workers}).ToMatrix()

	nchunks := (samples + aggChunk - 1) / aggChunk
	workers := engine.Options{Workers: e.Workers}.EffectiveWorkers()
	if workers > nchunks {
		workers = nchunks // spare workers would never get a chunk
	}
	rep.Workers = workers

	chunkStats := make([]moments, nchunks)
	samplers := make([]*Sampler, workers)
	scratch := make([]*fast.Scratch, workers)
	for w := 0; w < workers; w++ {
		samplers[w] = NewSampler(g, e.Model)
		scratch[w] = fast.NewScratch()
		scratch[w].Grow(g.NumNodes())
	}
	var (
		errMu  sync.Mutex
		runErr error
	)
	engine.Dispatch(workers, 1, nchunks, func(w, lo, hi int) {
		var counts motif.Counts
		for c := lo; c < hi; c++ {
			first, last := c*aggChunk, min((c+1)*aggChunk, samples)
			for t := first; t < last; t++ {
				sg, err := samplers[w].Sample(sampleSeed(e.Seed, t))
				if err != nil { // unknown model: first error wins, workers drain
					errMu.Lock()
					if runErr == nil {
						runErr = err
					}
					errMu.Unlock()
					return
				}
				m := countMatrix(sg, delta, &counts, scratch[w])
				chunkStats[c].observe(&m, &rep.Real)
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}

	finishReport(rep, chunkStats)
	return rep, nil
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
// and returns their exact count matrices in index order. Sample t uses the
// same deterministic seed chain as Ensemble.Run (Seed + t·7919), so any
// partition of [0, Samples) across processes reproduces exactly the
// matrices a single Run would have observed — the worker half of the
// scatter/gather significance path (internal/shard). workers bounds local
// parallelism and never changes the matrices.
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
		var counts motif.Counts
		for i := a; i < b; i++ {
			sg, err := samplers[w].Sample(sampleSeed(seed, lo+i))
			if err != nil {
				errMu.Lock()
				if runErr == nil {
					runErr = err
				}
				errMu.Unlock()
				return
			}
			out[i] = countMatrix(sg, delta, &counts, scratch[w])
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

// ReportFromSamples assembles the exact Ensemble.Run report from
// already-counted sample matrices: samples[t] must be the count matrix of
// null sample t (the SampleMatrices output for [0, len(samples))). The
// matrices fold into the same fixed-size aggregation chunks, observed in
// sample-index order and merged in chunk-index order, so the resulting
// floating-point statistics are bit-identical to a single-process
// Ensemble.Run with the same model, seed chain and sample count — the
// gather half of the scatter/gather significance path. workers is recorded
// verbatim in Report.Workers (informational). len(samples) must be >= 1.
func ReportFromSamples(model Model, real motif.Matrix, samples []motif.Matrix, workers int) (*Report, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("nullmodel: no sample matrices")
	}
	rep := &Report{Model: model, Trials: len(samples), Workers: workers, Real: real}
	chunkStats := make([]moments, (len(samples)+aggChunk-1)/aggChunk)
	for t := range samples {
		chunkStats[t/aggChunk].observe(&samples[t], &rep.Real)
	}
	finishReport(rep, chunkStats)
	return rep, nil
}

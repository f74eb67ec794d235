package nullmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// reportsBitIdentical compares every statistic of two reports exactly
// (float equality, not tolerance — the ensemble promises bit-identity).
func reportsBitIdentical(a, b *Report) bool {
	return a.Model == b.Model && a.Trials == b.Trials &&
		a.Real == b.Real && a.Mean == b.Mean && a.Std == b.Std &&
		a.PUpper == b.PUpper && a.PLower == b.PLower
}

// The ensemble's z-scores and p-values must be bit-identical at any worker
// count: the aggregation chunking, per-sample seeding, and merge order are
// all independent of scheduling. Run under -race this also exercises the
// concurrent sampling machinery.
func TestEnsembleDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := randomGraph(r, 30, 900, 2000)
	for _, model := range []Model{TimeShuffle, DegreeRewire} {
		var base *Report
		for _, workers := range []int{1, 4, 16} {
			e := &Ensemble{Model: model, Samples: 40, Seed: 5, Workers: workers}
			rep, err := e.Run(g, 50)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = rep
				continue
			}
			if !reportsBitIdentical(base, rep) {
				t.Fatalf("%v: workers=%d report differs from workers=1", model, workers)
			}
		}
	}
}

// Statistical sanity: a graph that has already been time-shuffled is itself
// a draw from the TimeShuffle null, so its z-scores must hover near zero —
// no motif should look significant.
func TestEnsembleNullOnShuffledGraph(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g := randomGraph(r, 40, 1500, 5000)
	shuffled, err := Sample(g, TimeShuffle, 997)
	if err != nil {
		t.Fatal(err)
	}
	e := &Ensemble{Model: TimeShuffle, Samples: 60, Seed: 1, Workers: 4}
	rep, err := e.Run(shuffled, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range motif.AllLabels() {
		z := rep.ZScore(l)
		if math.IsInf(z, 0) || math.Abs(z) > 5 {
			t.Errorf("%v: z = %.2f on an already-shuffled graph", l, z)
		}
		if p := rep.PUpperAt(l); math.Abs(z) < 1 && p < 0.05 {
			t.Errorf("%v: p = %.3f despite z = %.2f", l, p, z)
		}
	}
}

// Empirical p-values: add-one smoothing keeps them in (0, 1], and the two
// tails always overlap (every sample is >=, <=, or both).
func TestEnsemblePValues(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomGraph(r, 20, 400, 600)
	e := &Ensemble{Model: TimeShuffle, Samples: 17, Seed: 9, Workers: 3}
	rep, err := e.Run(g, 30)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(rep.Trials)
	for _, l := range motif.AllLabels() {
		up, lo := rep.PUpperAt(l), rep.PLowerAt(l)
		for _, p := range []float64{up, lo} {
			if p < 1/(n+1)-1e-12 || p > 1 {
				t.Fatalf("%v: p-value %v out of range", l, p)
			}
		}
		if up+lo < 1 {
			t.Fatalf("%v: tails don't overlap (%.3f + %.3f < 1)", l, up, lo)
		}
	}
}

// Odd sample counts, tiny ensembles, and more workers than chunks must all
// work; Report.Workers reflects the clamped effective parallelism.
func TestEnsembleShapes(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	g := randomGraph(r, 10, 150, 200)
	for _, samples := range []int{1, 2, 16, 17, 33} {
		e := &Ensemble{Model: DegreeRewire, Samples: samples, Seed: 2, Workers: 16}
		rep, err := e.Run(g, 25)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trials != samples {
			t.Fatalf("Trials = %d, want %d", rep.Trials, samples)
		}
		maxChunks := (samples + aggChunk - 1) / aggChunk
		if rep.Workers > maxChunks {
			t.Fatalf("Workers = %d with only %d chunks", rep.Workers, maxChunks)
		}
	}
	// Default sample count.
	e := &Ensemble{Model: TimeShuffle, Seed: 1}
	rep, err := e.Run(g, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 20 {
		t.Fatalf("default Trials = %d, want 20", rep.Trials)
	}
}

// Unit-level contract of the moment aggregator: merging with empty states
// is the identity, and a chunked merge reproduces the whole-set mean and
// variance up to floating-point noise.
func TestMomentsMerge(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	real := &motif.Matrix{}
	var whole moments
	var chunks [3]moments
	var values []float64
	for i := 0; i < 30; i++ {
		var m motif.Matrix
		m[0][0] = uint64(r.Intn(1000))
		values = append(values, float64(m[0][0]))
		whole.observe(&m, real)
		chunks[i%3].observe(&m, real)
	}
	var merged moments
	var empty moments
	merged.merge(&empty) // no-op
	for c := range chunks {
		merged.merge(&chunks[c])
	}
	merged.merge(&empty) // still a no-op
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	n := float64(len(values))
	wantMean := sum / n
	wantVar := sumSq/n - wantMean*wantMean
	for _, st := range []*moments{&whole, &merged} {
		if st.n != n {
			t.Fatalf("n = %v, want %v", st.n, n)
		}
		if math.Abs(st.mean[0][0]-wantMean) > 1e-9*wantMean {
			t.Fatalf("mean = %v, want %v", st.mean[0][0], wantMean)
		}
		if math.Abs(st.m2[0][0]/n-wantVar) > 1e-6*wantVar {
			t.Fatalf("variance = %v, want %v", st.m2[0][0]/n, wantVar)
		}
		if st.ge[0][0] != int64(n) { // every observation >= the zero real
			t.Fatalf("ge = %d, want %v", st.ge[0][0], n)
		}
	}
}

func TestEnsembleErrors(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	g := randomGraph(r, 5, 20, 50)
	if _, err := (&Ensemble{Model: TimeShuffle}).Run(nil, 10); err == nil {
		t.Fatal("want error for nil graph")
	}
	if _, err := (&Ensemble{Model: TimeShuffle}).Run(g, -1); err == nil {
		t.Fatal("want error for negative delta")
	}
	if _, err := (&Ensemble{Model: Model(42)}).Run(g, 10); err == nil {
		t.Fatal("want error for unknown model")
	}
	if _, err := Significance(g, -1, Options{}); err == nil {
		t.Fatal("want error through the Significance wrapper")
	}
}

// BenchmarkEnsemble measures ensemble throughput across worker counts. CI
// runs it pinned (count=5) into bench.txt, where `harebench -compare`
// fences each worker count against the previous main run; the benchmark's
// per-layer form is nullmodel.ensemble_ms (BENCHMARK.json). No speedup is
// asserted: it depends on the host's core count.
func BenchmarkEnsemble(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, 300, 30_000, 500_000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := &Ensemble{Model: TimeShuffle, Samples: 32, Seed: 1, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(g, temporal.Timestamp(3000)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(32*b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// The scatter/gather significance path: sample matrices drawn in disjoint
// index ranges (any partition, any per-range worker count) and re-folded
// by ReportFromSamples must reproduce Ensemble.Run bit-identically — this
// is the invariant the internal/shard coordinator relies on.
func TestSampleMatricesPartitionAssemblesRunReport(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomGraph(r, 30, 800, 1500)
	const samples, seed = 22, int64(9)
	var delta temporal.Timestamp = 60
	for _, model := range []Model{TimeShuffle, DegreeRewire} {
		e := &Ensemble{Model: model, Samples: samples, Seed: seed, Workers: 3}
		want, err := e.Run(g, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, cuts := range [][]int{
			{0, samples},
			{0, 1, samples},
			{0, 7, 11, samples},
			{0, 4, 8, 12, 16, samples},
		} {
			mats := make([]motif.Matrix, 0, samples)
			for i := 0; i+1 < len(cuts); i++ {
				part, err := SampleMatrices(g, delta, model, seed, cuts[i], cuts[i+1], i+1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(part) != cuts[i+1]-cuts[i] {
					t.Fatalf("range [%d,%d): %d matrices", cuts[i], cuts[i+1], len(part))
				}
				mats = append(mats, part...)
			}
			got, err := ReportFromSamples(model, want.Real, mats, want.Workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reportsBitIdentical(want, got) {
				t.Fatalf("%v: assembled report from cuts %v differs from Ensemble.Run", model, cuts)
			}
		}
	}
}

func TestSampleMatricesErrors(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	g := randomGraph(r, 10, 50, 100)
	if _, err := SampleMatrices(nil, 10, TimeShuffle, 1, 0, 2, 1, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := SampleMatrices(g, -1, TimeShuffle, 1, 0, 2, 1, nil); err == nil {
		t.Error("negative delta accepted")
	}
	if _, err := SampleMatrices(g, 10, TimeShuffle, 1, 3, 2, 1, nil); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := SampleMatrices(g, 10, Model(99), 1, 0, 2, 1, nil); err == nil {
		t.Error("unknown model accepted")
	}
	// Past the sample limit is an error before anything is allocated: a
	// range this size would exhaust memory.
	if _, err := SampleMatrices(g, 10, TimeShuffle, 1, 0, 10_000_000_000, 1, nil); err == nil {
		t.Error("range past MaxSamples accepted")
	}
	if _, err := SampleMatrices(g, 10, TimeShuffle, 1, MaxSamples, MaxSamples+1, 1, nil); err == nil {
		t.Error("sample index MaxSamples accepted")
	}
	if out, err := SampleMatrices(g, 10, TimeShuffle, 1, MaxSamples-1, MaxSamples, 1, nil); err != nil || len(out) != 1 {
		t.Errorf("last sample index: %v, %d matrices", err, len(out))
	}
	if out, err := SampleMatrices(g, 10, TimeShuffle, 1, 5, 5, 1, nil); err != nil || len(out) != 0 {
		t.Errorf("empty range: %v, %d matrices", err, len(out))
	}
	if _, err := ReportFromSamples(TimeShuffle, motif.Matrix{}, nil, 1); err == nil {
		t.Error("empty sample set accepted")
	}
}

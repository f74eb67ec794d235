// Package nullmodel measures the statistical significance of motif counts
// against randomised reference graphs — the standard methodology of motif
// analysis (Milo et al., Science 2002) adapted to temporal graphs, and the
// quantitative backbone of the anomaly-detection applications the paper
// motivates. A motif is over-represented when its count in the real graph
// sits many standard deviations above its counts in null samples.
//
// Two null models are provided:
//
//   - TimeShuffle permutes timestamps across edges: the static structure is
//     preserved exactly while temporal ordering (and hence temporal motif
//     structure) is randomised. This isolates *temporal* significance.
//   - DegreeRewire swaps the targets of random edge pairs: in- and
//     out-degree sequences and the timestamp sequence are preserved while
//     the wiring is randomised. This isolates *structural* significance.
//
// Sampling and counting are driven by Ensemble, which draws and counts the
// null samples in parallel (one in-place Sampler per worker) and aggregates
// per-motif moments deterministically: a fixed seed gives bit-identical
// z-scores at any worker count.
package nullmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// Model selects a randomisation strategy.
type Model int

const (
	// TimeShuffle permutes edge timestamps uniformly.
	TimeShuffle Model = iota
	// DegreeRewire performs double-edge target swaps (10·|E| attempts),
	// preserving each node's in- and out-degree and every timestamp.
	DegreeRewire
)

func (m Model) String() string {
	switch m {
	case TimeShuffle:
		return "time-shuffle"
	case DegreeRewire:
		return "degree-rewire"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ParseModel parses a model name as printed by Model.String.
func ParseModel(s string) (Model, error) {
	switch s {
	case "time-shuffle":
		return TimeShuffle, nil
	case "degree-rewire":
		return DegreeRewire, nil
	}
	return 0, fmt.Errorf("nullmodel: unknown model %q (want time-shuffle or degree-rewire)", s)
}

// mutate applies the model's randomisation in place to a graph's edge
// columns: TimeShuffle permutes ts, DegreeRewire rewires dst, and src is
// only read. The RNG stream depends only on (model, seed), never on worker
// count, so every sampling path draws bit-identical samples for a given
// seed.
func mutate(src, dst []temporal.NodeID, ts []temporal.Timestamp, model Model, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	switch model {
	case TimeShuffle:
		r.Shuffle(len(ts), func(i, j int) {
			ts[i], ts[j] = ts[j], ts[i]
		})
	case DegreeRewire:
		rewire(src, dst, r)
	default:
		return fmt.Errorf("nullmodel: unknown model %v", model)
	}
	return nil
}

// rewire performs 10·|E| double-edge target-swap attempts in place on the
// target column. A swap is applied only when neither resulting edge is a
// self-loop: the graph builder drops self-loops (mirroring the loader's
// self-loop accounting, Graph.SelfLoopsDropped), so letting one through
// would silently shrink the sample by an edge and break the degree-sequence
// invariant the model exists to preserve.
func rewire(src, dst []temporal.NodeID, r *rand.Rand) {
	attempts := 10 * len(dst)
	for a := 0; a < attempts; a++ {
		i, j := r.Intn(len(dst)), r.Intn(len(dst))
		if i == j {
			continue
		}
		// Swapping targets turns (src[i]→dst[i], src[j]→dst[j]) into
		// (src[i]→dst[j], src[j]→dst[i]); reject the swap when either new
		// edge would be a self-loop.
		if src[i] == dst[j] || src[j] == dst[i] {
			continue
		}
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Sample draws one randomised graph under the given model. It copies the
// target and time columns, mutates the copies and builds a fresh graph from
// them, so the graph it returns is the caller's; ensembles should prefer
// Sampler, which reuses one scratch graph across samples and draws
// bit-identical samples for the same seeds.
func Sample(g *temporal.Graph, model Model, seed int64) (*temporal.Graph, error) {
	src, dst, ts := g.Src(), slices.Clone(g.Dst()), slices.Clone(g.Times())
	if err := mutate(src, dst, ts, model, seed); err != nil {
		return nil, err
	}
	b := temporal.NewBuilder(len(ts))
	for i, t := range ts {
		_ = b.AddEdge(src[i], dst[i], t) // a built graph has no negative IDs
	}
	return b.Build(), nil
}

// Options configures a significance run.
type Options struct {
	// Model is the null model (default TimeShuffle).
	Model Model
	// Trials is the number of null samples (default DefaultSamples, at most
	// MaxSamples).
	Trials int
	// Seed feeds the deterministic RNG chain: sample t draws from seed
	// Seed + t·7919, so results do not depend on scheduling.
	Seed int64
	// Workers is the number of worker goroutines drawing and counting null
	// samples concurrently — and the engine parallelism for the real-graph
	// count (0 = all CPUs). Any value yields bit-identical statistics.
	Workers int
}

// Report holds real counts and null-model statistics per motif.
type Report struct {
	Model  Model
	Trials int
	// Workers is the worker count the ensemble ran with (informational —
	// it does not affect any statistic).
	Workers int
	Real    motif.Matrix
	Mean    [6][6]float64
	Std     [6][6]float64
	// PUpper and PLower are add-one-smoothed empirical tail p-values:
	// (1 + #{null ≥ real}) / (Trials + 1) and the ≤ analogue. They are never
	// exactly 0 — N samples cannot certify an event rarer than 1/(N+1).
	PUpper [6][6]float64
	PLower [6][6]float64
}

// MeanAt returns the null-model mean count for a label.
func (r *Report) MeanAt(l motif.Label) float64 { return r.Mean[l.Row-1][l.Col-1] }

// StdAt returns the null-model standard deviation for a label.
func (r *Report) StdAt(l motif.Label) float64 { return r.Std[l.Row-1][l.Col-1] }

// PUpperAt returns the empirical upper-tail p-value for a label: small
// values mean the real count is significantly *over*-represented.
func (r *Report) PUpperAt(l motif.Label) float64 { return r.PUpper[l.Row-1][l.Col-1] }

// PLowerAt returns the empirical lower-tail p-value for a label: small
// values mean the real count is significantly *under*-represented.
func (r *Report) PLowerAt(l motif.Label) float64 { return r.PLower[l.Row-1][l.Col-1] }

// ZScore returns (real − mean)/std for a label. A zero-variance null with a
// matching real count scores 0; with a differing real count it returns ±Inf.
func (r *Report) ZScore(l motif.Label) float64 {
	real := float64(r.Real.At(l))
	mean, std := r.MeanAt(l), r.StdAt(l)
	diff := real - mean
	if std == 0 {
		switch {
		case diff == 0:
			return 0
		case diff > 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return diff / std
}

// TopSignificant returns the n motifs with the largest |z|, descending.
func (r *Report) TopSignificant(n int) []motif.LabelCount {
	type zl struct {
		l motif.Label
		z float64
	}
	all := make([]zl, 0, 36)
	for _, l := range motif.AllLabels() {
		all = append(all, zl{l, math.Abs(r.ZScore(l))})
	}
	for i := 0; i < len(all); i++ { // small fixed n: selection sort is fine
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].z > all[best].z {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	if n > len(all) {
		n = len(all)
	}
	out := make([]motif.LabelCount, n)
	for i := 0; i < n; i++ {
		out[i] = motif.LabelCount{Label: all[i].l, Count: r.Real.At(all[i].l)}
	}
	return out
}

// Significance counts motifs in g and in Trials null samples, returning
// per-motif statistics. It is the one-call form of Ensemble.Run.
func Significance(g *temporal.Graph, delta temporal.Timestamp, opts Options) (*Report, error) {
	e := &Ensemble{Model: opts.Model, Samples: opts.Trials, Seed: opts.Seed, Workers: opts.Workers}
	return e.Run(g, delta)
}

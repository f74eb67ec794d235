// Package bts implements the interval-sampling approximation of Liu, Benson
// and Charikar (WSDM'19), the paper's "BTS" baseline: a sampling layer that
// sits on top of an exact counter (BT, as in the paper's experiments).
//
// The timeline is covered by windows of length L = c·δ with a uniformly
// random offset. Each window is kept with probability q; motif instances
// fully inside a kept window are counted exactly with BT and re-weighted by
// the inverse inclusion probability. An instance of duration d (= t3 − t1,
// d ≤ δ < L) lies fully inside some window of the random grid with
// probability (L − d)/L and its window is kept with probability q, so the
// weight 1/(q·(L−d)/L) makes the estimator unbiased.
package bts

import (
	"math/rand"

	"hare/internal/baseline/bt"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Options configures the sampler.
type Options struct {
	// WindowFactor is c in L = c·δ (default 10; must be > 1).
	WindowFactor int
	// Q is the per-window keep probability in (0, 1] (default 0.3).
	Q float64
	// Seed feeds the deterministic RNG.
	Seed int64
	// Workers > 1 processes sampled windows concurrently (the paper runs
	// BTS under the same OpenMP parallel mode as everything else).
	Workers int
}

func (o Options) factor() int {
	if o.WindowFactor > 1 {
		return o.WindowFactor
	}
	return 10
}

func (o Options) q() float64 {
	if o.Q > 0 && o.Q <= 1 {
		return o.Q
	}
	return 0.3
}

// Estimate approximates the instance counts of the given motif labels.
func Estimate(g *temporal.Graph, delta temporal.Timestamp, labels []motif.Label, opts Options) map[motif.Label]float64 {
	out := make(map[motif.Label]float64, len(labels))
	lo, hi, ok := g.TimeSpan()
	if !ok || delta <= 0 {
		return out
	}
	L := temporal.Timestamp(opts.factor()) * delta
	q := opts.q()
	rng := rand.New(rand.NewSource(opts.Seed))
	offset := temporal.Timestamp(rng.Int63n(int64(L)))
	gridLo := lo - offset

	type window struct{ lo, hi temporal.Timestamp }
	var kept []window
	for w := gridLo; w <= hi; w += L {
		if rng.Float64() < q {
			kept = append(kept, window{w, w + L})
		}
	}

	estimates := make([]map[motif.Label]float64, len(kept))
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	done := make(chan int)
	for i, win := range kept {
		go func(i int, win window) {
			sem <- struct{}{}
			defer func() { <-sem; done <- i }()
			sub := g.TimeSlice(win.lo, win.hi)
			est := make(map[motif.Label]float64, len(labels))
			for _, l := range labels {
				p, ok := bt.PatternOf(l)
				if !ok {
					continue
				}
				var sum float64
				for id := 0; id < sub.NumEdges(); id++ {
					bt.MatchFrom(sub, delta, p, temporal.EdgeID(id), func(span temporal.Timestamp) {
						incl := float64(L-span) / float64(L)
						sum += 1 / (q * incl)
					})
				}
				est[l] = sum
			}
			estimates[i] = est
		}(i, win)
	}
	for range kept {
		<-done
	}
	for _, est := range estimates {
		for l, v := range est {
			out[l] += v
		}
	}
	return out
}

// EstimatePairs is the paper's "BTS-Pair": approximate counts of the four
// 2-node motifs.
func EstimatePairs(g *temporal.Graph, delta temporal.Timestamp, opts Options) map[motif.Label]float64 {
	return Estimate(g, delta, motif.PairLabels(), opts)
}

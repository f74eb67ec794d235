package exact

import (
	"sync"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// CountPairs runs the 2-node stage of EX: the 2-class sliding-window triple
// counter over every node pair's merged edge sequence ("EX-Pair").
func CountPairs(g *temporal.Graph, delta temporal.Timestamp) motif.Matrix {
	var m motif.Matrix
	tc := newTripleCounter(2)
	var times []temporal.Timestamp
	var classes []uint8
	for u := 0; u < g.NumNodes(); u++ {
		for _, w := range g.Neighbors(temporal.NodeID(u)) {
			if w <= temporal.NodeID(u) {
				continue // each unordered pair once
			}
			seq := g.Between(temporal.NodeID(u), w)
			if seq.Len() < 3 {
				continue
			}
			times = times[:0]
			classes = classes[:0]
			for i := 0; i < seq.Len(); i++ {
				times = append(times, seq.Time[i])
				classes = append(classes, uint8(motif.DirOf(seq.Out[i])))
			}
			tc.reset()
			tc.run(times, classes, delta)
			for x := 0; x < 2; x++ {
				for y := 0; y < 2; y++ {
					for z := 0; z < 2; z++ {
						if n := tc.at(x, y, z); n > 0 {
							m.AddAt(motif.PairLabel(motif.Dir(x), motif.Dir(y), motif.Dir(z)), n)
						}
					}
				}
			}
		}
	}
	return m
}

// CountStars runs the star stage of EX over all centers ("EX-Star").
func CountStars(g *temporal.Graph, delta temporal.Timestamp) motif.Matrix {
	var m motif.Matrix
	countStars(g, delta, &m)
	return m
}

// CountTriangles runs the triangle stage of EX ("EX-Tri").
func CountTriangles(g *temporal.Graph, delta temporal.Timestamp) motif.Matrix {
	var m motif.Matrix
	countTriangles(g, delta, &m)
	return m
}

// Count runs the full EX algorithm: pair, star and triangle stages.
func Count(g *temporal.Graph, delta temporal.Timestamp) motif.Matrix {
	var m motif.Matrix
	pairs := CountPairs(g, delta)
	for _, l := range motif.PairLabels() {
		m.Set(l, pairs.At(l))
	}
	countStars(g, delta, &m)
	countTriangles(g, delta, &m)
	return m
}

// CountParallel is the time-partitioned parallel EX used as the Fig. 11
// baseline. The time range is split into per-worker slabs counted
// concurrently; motifs spanning a slab boundary live inside a ±δ window
// around it and are counted by a sequential inclusion–exclusion correction
// pass (crossing = window − left half − right half). The sequential pass is
// the data-dependent fraction that caps EX's parallel scaling — more workers
// mean more boundaries and more serial work, reproducing the paper's
// observation that EX slows down beyond ~16 threads.
func CountParallel(g *temporal.Graph, delta temporal.Timestamp, workers int) motif.Matrix {
	lo, hi, ok := g.TimeSpan()
	if !ok || workers <= 1 {
		return Count(g, delta)
	}
	span := hi - lo + 1
	minSlab := 2*delta + 1
	nslabs := workers
	if int64(nslabs) > span/minSlab {
		nslabs = int(span / minSlab)
	}
	if nslabs <= 1 {
		return Count(g, delta)
	}
	slabW := span / int64(nslabs)

	bounds := make([]temporal.Timestamp, 0, nslabs+1)
	for i := 0; i <= nslabs; i++ {
		bounds = append(bounds, lo+int64(i)*slabW)
	}
	bounds[nslabs] = hi + 1

	// Parallel slab stage.
	partial := make([]motif.Matrix, nslabs)
	var wg sync.WaitGroup
	for i := 0; i < nslabs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := g.TimeSlice(bounds[i], bounds[i+1])
			partial[i] = Count(sub, delta)
		}(i)
	}
	wg.Wait()

	var total motif.Matrix
	for i := range partial {
		for _, l := range motif.AllLabels() {
			total.AddAt(l, partial[i].At(l))
		}
	}

	// Sequential boundary-correction stage.
	for i := 1; i < nslabs; i++ {
		b := bounds[i]
		win := Count(g.TimeSlice(b-delta, b+delta), delta)
		left := Count(g.TimeSlice(b-delta, b), delta)
		right := Count(g.TimeSlice(b, b+delta), delta)
		for _, l := range motif.AllLabels() {
			total.AddAt(l, win.At(l)-left.At(l)-right.At(l))
		}
	}
	return total
}

package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hare/internal/engine"
	"hare/internal/temporal"
)

// Dispatch must deliver every index exactly once, with in-range worker ids,
// for any workers/chunk combination including the degenerate ones.
func TestDispatchCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ workers, chunk, n int }{
		{1, 64, 100}, {4, 1, 100}, {4, 7, 100}, {16, 64, 10},
		{0, 0, 33}, // clamped to 1 worker, chunk 1
		{8, 3, 0},  // empty range: no calls
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		calls := 0
		engine.Dispatch(tc.workers, tc.chunk, tc.n, func(w, start, end int) {
			if w < 0 || (tc.workers > 0 && w >= tc.workers) {
				t.Errorf("worker id %d out of range", w)
			}
			mu.Lock()
			calls++
			for i := start; i < end; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d chunk=%d: index %d delivered %d times",
					tc.workers, tc.chunk, i, c)
			}
		}
		if tc.n == 0 && calls != 0 {
			t.Fatalf("empty range produced %d calls", calls)
		}
	}
}

// goroutineID parses the running goroutine's id out of its stack header
// ("goroutine 123 [running]:"); test-only, to tell the caller's goroutine
// from a worker's.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// Sweep is the one scheduler every two-stage count rides on, so its
// delivery contract is checked directly, apart from any kernel: over random
// graphs and incidence-position sub-ranges and the whole option matrix,
// every non-skipped pivot's share of the range is delivered exactly once — a
// whole edge span as one light call or as heavy slices that partition
// [0, degree), a span a bound cuts as heavy slices that partition its share
// — skipped pivots never, worker ids stay in [0, workers), and one worker
// means ascending order on the caller's goroutine with heavy calls only for
// the cut spans.
func TestSweepDeliversEachPivotOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type slice struct{ from, to int }
	for trial := 0; trial < 8; trial++ {
		g := skewedGraph(r, 25+r.Intn(40), 200+r.Intn(600), 100)
		total := g.NumIncidences()
		lo := r.Intn(total + 1)
		hi := lo + r.Intn(total-lo+1)
		switch trial {
		case 0:
			lo, hi = 0, total
		case 1: // one position into the first span, one short of the end
			lo, hi = 1, total-1
		case 2: // one position past the start of the last span of two or more
			lo = 0
			for u, start := 0, 0; u < g.NumNodes(); u++ {
				if g.Degree(temporal.NodeID(u)) >= 2 {
					hi = start + 1
				}
				start += g.Degree(temporal.NodeID(u))
			}
		}
		degree := func(id int) int {
			if d := g.Degree(temporal.NodeID(id)); d >= 2 {
				return d
			}
			return -1
		}
		for _, workers := range []int{1, 2, 4, 32} {
			for _, thrd := range []int{0, 1, -1} {
				for _, chunk := range []int{0, 1, 3} {
					for _, sched := range []engine.Schedule{engine.ScheduleDynamic, engine.ScheduleStatic} {
						opts := engine.Options{Workers: workers, DegreeThreshold: thrd, ChunkSize: chunk, Schedule: sched}
						name := fmt.Sprintf("trial %d [%d,%d) %+v", trial, lo, hi, opts)
						var mu sync.Mutex
						lightCalls := make([]int, g.NumNodes())
						slices := make([][]slice, g.NumNodes())
						var order []int
						caller, offCaller := goroutineID(), false
						seen := func(w int) {
							if w < 0 || w >= workers {
								t.Errorf("%s: worker id %d out of range", name, w)
							}
							if workers == 1 && goroutineID() != caller {
								offCaller = true
							}
						}
						light := func(w, id int) {
							seen(w)
							mu.Lock()
							lightCalls[id]++
							order = append(order, id)
							mu.Unlock()
						}
						heavy := func(w, id, from, to int) {
							seen(w)
							mu.Lock()
							slices[id] = append(slices[id], slice{from, to})
							mu.Unlock()
						}
						engine.Sweep(g, opts, lo, hi, degree, light, heavy)

						if offCaller {
							t.Fatalf("%s: one worker ran off the caller's goroutine", name)
						}
						if workers == 1 && !sort.IntsAreSorted(order) {
							t.Fatalf("%s: one worker delivered out of order: %v", name, order)
						}
						start := 0 // the pivot's first incidence position, by a prefix sum
						for id := 0; id < g.NumNodes(); id++ {
							d := g.Degree(temporal.NodeID(id))
							// The pivot's share of [lo, hi), as offsets into its span.
							from, to := max(lo-start, 0), min(hi-start, d)
							start += d
							if degree(id) < 0 || from >= to {
								if lightCalls[id] != 0 || len(slices[id]) != 0 {
									t.Fatalf("%s: pivot %d (degree %d) outside the range or skipped, got %d light calls and slices %v",
										name, id, d, lightCalls[id], slices[id])
								}
								continue
							}
							whole := from == 0 && to == d
							if len(slices[id]) == 0 {
								if !whole || lightCalls[id] != 1 {
									t.Fatalf("%s: pivot %d (degree %d, share [%d,%d)) delivered %d times as light",
										name, id, d, from, to, lightCalls[id])
								}
								continue
							}
							if lightCalls[id] != 0 || (workers == 1 && (whole || len(slices[id]) != 1)) {
								t.Fatalf("%s: pivot %d (degree %d) got %d light calls and slices %v",
									name, id, d, lightCalls[id], slices[id])
							}
							sort.Slice(slices[id], func(a, b int) bool { return slices[id][a].from < slices[id][b].from })
							next := from
							for _, s := range slices[id] {
								if s.from != next || s.to <= s.from {
									t.Fatalf("%s: pivot %d slices %v do not partition [%d,%d)", name, id, slices[id], from, to)
								}
								next = s.to
							}
							if next != to {
								t.Fatalf("%s: pivot %d slices %v do not partition [%d,%d)", name, id, slices[id], from, to)
							}
						}
					}
				}
			}
		}
	}
}

// With a threshold of 1 and more than one worker every pivot of degree > 1
// is heavy: the intra-pivot stage must actually run.
func TestSweepHeavyStage(t *testing.T) {
	g := skewedGraph(rand.New(rand.NewSource(8)), 30, 500, 100)
	opts := engine.Options{Workers: 4, DegreeThreshold: 1}
	degree := func(id int) int { return g.Degree(temporal.NodeID(id)) }
	var wantLight, wantSliced int64 // pivots at or under thrd; first-edge indices of the rest
	for u := 0; u < g.NumNodes(); u++ {
		if d := degree(u); d > 1 {
			wantSliced += int64(d)
		} else {
			wantLight++
		}
	}
	var lightN, slicedN atomic.Int64
	engine.Sweep(g, opts, 0, g.NumIncidences(), degree,
		func(w, id int) { lightN.Add(1) },
		func(w, id, from, to int) { slicedN.Add(int64(to - from)) })
	if wantSliced == 0 || lightN.Load() != wantLight || slicedN.Load() != wantSliced {
		t.Fatalf("%d light calls, %d first-edge indices sliced (want %d, %d > 0)",
			lightN.Load(), slicedN.Load(), wantLight, wantSliced)
	}
}

package engine_test

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hare/internal/engine"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Once done is closed, Dispatch hands out no further chunk: a worker checks
// before it pulls, so at most one chunk per other worker starts after the
// close (one pulled just after its check), and the worker that closed it
// stops at once.
func TestDispatchStopsWithinOneChunk(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, closeAt := range []int{1, 3, 10} {
			done := make(chan struct{})
			var calls, late atomic.Int64
			engine.Dispatch(workers, 4, 400, done, func(w, start, end int) {
				if engine.Stopped(done) {
					late.Add(1)
				}
				if calls.Add(1) == int64(closeAt) {
					close(done)
				}
			})
			if got := late.Load(); got > int64(workers-1) {
				t.Fatalf("workers=%d, closed at chunk %d: %d chunks started after the close, want at most %d",
					workers, closeAt, got, workers-1)
			}
			if workers == 1 && calls.Load() != int64(closeAt) {
				t.Fatalf("one worker ran %d chunks after closing at chunk %d", calls.Load(), closeAt)
			}
			if !engine.Stopped(done) {
				t.Fatal("Stopped misses a closed channel")
			}
		}
	}
	if engine.Stopped(nil) {
		t.Fatal("a nil done must never stop")
	}
}

// Both stages of Sweep read Done once per chunk: stopped inside the light
// stage it finishes the chunks in hand and takes no other, nor any hub;
// stopped inside the heavy stage it takes no further slice of any hub.
func TestSweepStopsWithinOneChunk(t *testing.T) {
	g := skewedGraph(rand.New(rand.NewSource(11)), 400, 6000, 1000)
	degree := func(id int) int { return g.Degree(temporal.NodeID(id)) }
	for _, workers := range []int{1, 3} {
		// Light stage: chunks of 8 centers, stopped at the 20th light call.
		done := make(chan struct{})
		opts := engine.Options{Workers: workers, ChunkSize: 8, DegreeThreshold: -1, Done: done}
		var light, late, heavy atomic.Int64
		engine.Sweep(g, opts, 0, g.NumIncidences(), degree,
			func(w, id int) {
				if engine.Stopped(done) {
					late.Add(1)
				}
				if light.Add(1) == 20 {
					close(done)
				}
			},
			func(w, id, from, to int) { heavy.Add(1) })
		// After the close: the rest of the closing chunk (7 centers at most)
		// and one chunk of 8 per other worker.
		if got, most := late.Load(), int64(7+8*(workers-1)); got > most {
			t.Fatalf("workers=%d: %d light calls after the stop, want at most %d", workers, got, most)
		}
		if heavy.Load() != 0 {
			t.Fatalf("workers=%d: the heavy stage ran after a stop", workers)
		}
	}
	// Heavy stage: every center of degree > 1 is a hub, sliced across 3
	// workers; stopped at the 5th slice.
	done := make(chan struct{})
	opts := engine.Options{Workers: 3, DegreeThreshold: 1, Done: done}
	var slices, late atomic.Int64
	engine.Sweep(g, opts, 0, g.NumIncidences(), degree,
		func(w, id int) {},
		func(w, id, from, to int) {
			if engine.Stopped(done) {
				late.Add(1)
			}
			if slices.Add(1) == 5 {
				close(done)
			}
		})
	if got := late.Load(); got > 2 {
		t.Fatalf("%d heavy slices started after the stop, want at most 2", got)
	}
}

// A stopped count returns no counters, never a partial tally, and a stop
// signal that never fires changes no cell.
func TestCountStopsOnDone(t *testing.T) {
	g := skewedGraph(rand.New(rand.NewSource(12)), 200, 3000, 500)
	closed := make(chan struct{})
	close(closed)
	open := make(chan struct{})
	for _, workers := range []int{1, 2, 3} {
		stopped := engine.Options{Workers: workers, Done: closed}
		if c := engine.Count(g, 100, stopped); c != nil {
			t.Fatalf("workers=%d: a stopped Count returned counters", workers)
		}
		if c := engine.CountRange(g, 100, stopped, 5, g.NumIncidences()-5); c != nil {
			t.Fatalf("workers=%d: a stopped CountRange returned counters", workers)
		}
		if c := engine.CountCategoryRange(g, 100, stopped, 0, g.NumIncidences(), motif.CategoryTri); c != nil {
			t.Fatalf("workers=%d: a stopped CountCategoryRange returned counters", workers)
		}
		want := engine.Count(g, 100, engine.Options{Workers: workers})
		if got := engine.Count(g, 100, engine.Options{Workers: workers, Done: open}); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: an unfired stop signal changed the counts", workers)
		}
	}
}

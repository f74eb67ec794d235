package higher

import (
	"math/rand"
	"testing"

	"hare/internal/motif"
)

// A stopped run of either scheduled counter returns zero counters, never a
// partial tally, and a stop signal that never fires changes no cell.
func TestCountersStopOnDone(t *testing.T) {
	g := hubGraph(rand.New(rand.NewSource(21)), 120, 2000, 600, 5000)
	closed := make(chan struct{})
	close(closed)
	open := make(chan struct{})
	for _, workers := range []int{1, 2, 3} {
		stopped := Options{Workers: workers, Done: closed}
		if p := CountPath4Range(g, 300, stopped, 3, g.NumEdges()-3); p != (PathCounter{}) {
			t.Fatalf("workers=%d: a stopped CountPath4Range returned a partial counter (total %d)", workers, p.Total())
		}
		if s4, counts := CountStar4Range(g, 300, stopped, 0, g.NumIncidences()); s4 != (Star4Counter{}) || counts != (motif.Counts{}) {
			t.Fatalf("workers=%d: a stopped CountStar4Range returned partial counters", workers)
		}
		live := Options{Workers: workers, Done: open}
		if got, want := CountPath4(g, 300, live), CountPaths(g, 300); got != want {
			t.Fatalf("workers=%d: an unfired stop signal changed path4", workers)
		}
		if got, want := CountStar4(g, 300, live), Count(g, 300); got != want {
			t.Fatalf("workers=%d: an unfired stop signal changed star4", workers)
		}
	}
}

package fast

import (
	"math/rand"
	"testing"

	"hare/internal/motif"
	"hare/internal/temporal"
)

// The per-center hot path must be allocation free in steady state: once the
// Scratch has grown to the graph's node space, counting a center touches
// only preallocated columns and dense counters. This is the regression guard
// for the columnar-CSR / dense-scratch rework.
func TestSteadyStateZeroAllocsPerCenter(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := randomGraph(r, 40, 3000, 200)
	const delta = 60
	s := NewScratch()
	s.Grow(g.NumNodes())
	counts := &motif.Counts{}
	pass := func() {
		for u := 0; u < g.NumNodes(); u++ {
			CountStarPairNode(g, temporal.NodeID(u), delta, counts, s)
			CountTriNode(g, temporal.NodeID(u), delta, &counts.Tri, true)
		}
	}
	// AllocsPerRun performs its own warm-up call before measuring, which
	// absorbs any one-time growth.
	if avg := testing.AllocsPerRun(5, pass); avg != 0 {
		t.Fatalf("steady-state pass allocates %.1f times, want 0", avg)
	}
}

// Scratch state must not leak between centers even across epoch wraps: the
// epoch counter reset path has to clear the mark array.
func TestScratchEpochWrap(t *testing.T) {
	s := NewScratch()
	s.Grow(4)
	s.Bump(2, true)
	if _, cout := s.Vals(2); cout != 1 {
		t.Fatal("bump not visible")
	}
	// Force a wrap: set the epoch to its maximum and reset twice.
	s.epoch = ^uint32(0) - 1
	s.Bump(3, false)
	s.Reset() // -> MaxUint32
	s.Reset() // wraps -> clears marks, epoch 1
	if cin, cout := s.Vals(3); cin != 0 || cout != 0 {
		t.Fatalf("stale counters survived the epoch wrap: (%d,%d)", cin, cout)
	}
	s.Bump(3, false)
	if cin, _ := s.Vals(3); cin != 1 {
		t.Fatal("bump after wrap not visible")
	}
}

package engine

import (
	"testing"

	"hare/internal/temporal"
)

// Options is the repository's only resolver of workers, thrd and chunk
// size (package higher converts to it); these are its defaults.
func TestOptionsDefaults(t *testing.T) {
	if (Options{}).EffectiveWorkers() < 1 {
		t.Fatal("zero Options must resolve to >= 1 worker")
	}
	if (Options{Workers: 3}).EffectiveWorkers() != 3 {
		t.Fatal("explicit workers ignored")
	}
	if (Options{}).Chunk() != 64 || (Options{ChunkSize: 7}).Chunk() != 7 {
		t.Fatal("chunk defaults wrong")
	}
	g := temporal.FromEdges([]temporal.Edge{{From: 0, To: 1, Time: 0}})
	if EffectiveDegreeThreshold(g, Options{DegreeThreshold: 5}) != 5 {
		t.Fatal("explicit threshold ignored")
	}
	if EffectiveDegreeThreshold(g, Options{}) != 0 {
		t.Fatal("tiny graph should have no heavy stage")
	}
	Sweep(g, Options{Workers: 4}, 0, g.NumNodes(),
		func(int) int { return 1 << 20 }, func(int, int) {},
		func(int, int, int, int) { t.Error("tiny graph ran a heavy stage") })
}

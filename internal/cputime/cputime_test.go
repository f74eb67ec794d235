package cputime

import (
	"runtime"
	"testing"
)

// process reads a clock that only moves forward, and moves while this
// process computes.
func TestProcessAdvances(t *testing.T) {
	start, ok := process()
	if !ok {
		if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
			t.Fatalf("CPU time unreadable on %s", runtime.GOOS)
		}
		t.Skip("CPU time is not read on this platform")
	}
	x := uint64(1)
	for end := start; end <= start; end, _ = process() {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	if x == 0 {
		t.Log(x) // keeps the loop's work observable
	}
}

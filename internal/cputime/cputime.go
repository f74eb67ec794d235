// Package cputime reads the CPU time the process has used, for the
// benchmarks that report it beside wall time. On a shared machine whose
// speed drifts, wall-clock ns/op moves with the neighbours; the CPU time a
// kernel spends per op moves far less, and a change that adds work shows
// in it even when the wall clock hides it.
package cputime

import "testing"

// Report starts measuring a benchmark's CPU time and returns the function
// that stops it and reports the process's CPU time (user + system, every
// goroutine's) per iteration as "cpu-ns/op". Call it after the setup and
// run the returned function after the timed loop:
//
//	defer cputime.Report(b)()
//	for b.Loop() { ... }
//
// It reports nothing where the platform cannot read CPU time.
func Report(b *testing.B) (stop func()) {
	start, ok := process()
	return func() {
		end, _ := process()
		if ok && b.N > 0 {
			b.ReportMetric(float64(end-start)/float64(b.N), "cpu-ns/op")
		}
	}
}

//go:build unix

package cputime

import (
	"syscall"
	"time"
)

// process returns the CPU time (user + system) the process has used so
// far; ok is false when it cannot be read.
func process() (d time.Duration, ok bool) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}

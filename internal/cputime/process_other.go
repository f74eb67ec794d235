//go:build !unix

package cputime

import "time"

// process reports that this platform's CPU time is not read.
func process() (d time.Duration, ok bool) { return 0, false }

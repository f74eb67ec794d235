//go:build race

package server

// raceEnabled lets the allocation fence stand down: under the race
// detector sync.Pool drops a share of its Puts on purpose.
const raceEnabled = true

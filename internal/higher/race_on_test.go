//go:build race

package higher

// raceEnabled lets the pooling test stand down: under the race detector
// sync.Pool drops a share of its Puts on purpose.
const raceEnabled = true

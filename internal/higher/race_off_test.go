//go:build !race

package higher

const raceEnabled = false

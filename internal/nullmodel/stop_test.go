package nullmodel

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hare/internal/engine"
)

// Stopped draws return engine.ErrStopped and no matrices; a stop signal
// that never fires changes none.
func TestSampleMatricesStops(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 40, 600, 2000)
	closed := make(chan struct{})
	close(closed)
	for _, workers := range []int{1, 2} {
		out, err := SampleMatrices(g, 100, TimeShuffle, 9, 0, 12, workers, closed)
		if !errors.Is(err, engine.ErrStopped) || out != nil {
			t.Fatalf("workers=%d: stopped draws returned %d matrices, err %v", workers, len(out), err)
		}
		want, err := SampleMatrices(g, 100, TimeShuffle, 9, 0, 12, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SampleMatrices(g, 100, TimeShuffle, 9, 0, 12, workers, make(chan struct{}))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: an unfired stop signal changed the matrices (err %v)", workers, err)
		}
	}
}

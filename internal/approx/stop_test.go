package approx

import (
	"reflect"
	"testing"
)

// A stopped estimate returns no moments; a stop signal that never fires
// changes none.
func TestEstimateStrataStops(t *testing.T) {
	g := hubGraph(5)
	plan, err := NewPlan(g, PathKernel{}, Options{Epsilon: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	for _, workers := range []int{1, 2} {
		if m := EstimateStrata(g, PathKernel{}, 600, plan, workers, 0, len(plan.Strata), closed); m != nil {
			t.Fatalf("workers=%d: a stopped estimate returned %d strata's moments", workers, len(m))
		}
		want := EstimateStrata(g, PathKernel{}, 600, plan, workers, 0, len(plan.Strata), nil)
		got := EstimateStrata(g, PathKernel{}, 600, plan, workers, 0, len(plan.Strata), make(chan struct{}))
		if len(want) != len(plan.Strata) || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: an unfired stop signal changed the moments", workers)
		}
	}
}

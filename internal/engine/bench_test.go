package engine_test

import (
	"fmt"
	"testing"

	"hare/internal/cputime"
	"hare/internal/engine"
	"hare/internal/gen"
)

// BenchmarkCount times the served count, both halves of the engine (the
// star/pair sweep and the forward-incidence FAST-Tri), on the serving
// benchmark's input (wikitalk, 100k nodes) at δ = 600, at one and two
// workers. Like a served job it carries a stop signal that never fires, so
// the per-chunk stop check is inside the timed loop. The graph's derived
// slots are built before the timer, as a served count reads them warm.
func BenchmarkCount(b *testing.B) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	engine.Count(g, 600, engine.Options{Workers: 1})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("wikitalk/workers=%d", workers), func(b *testing.B) {
			defer cputime.Report(b)()
			for i := 0; i < b.N; i++ {
				engine.Count(g, 600, engine.Options{Workers: workers, Done: done})
			}
		})
	}
}

package query

import (
	"fmt"
	"testing"

	"hare/internal/gen"
)

// BenchmarkExecuteEdge measures the edge-plan executor on the serving
// benchmark's input (wikitalk, δ = 600): the two shapes the pair sweep
// answers, a triangle and a 4-node path, and one 3-node star that takes the
// nested scan.
func BenchmarkExecuteEdge(b *testing.B) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct{ name, text string }{
		{"triangle", "a->b; b->c; c->a"},
		{"path", "a->b; b->c; c->d"},
		{"nested", "a->b; a->c; b->a"},
	} {
		s, err := ParseSpec(shape.text)
		if err != nil {
			b.Fatal(err)
		}
		p := Compile(s)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.Execute(g, 600, Options{Workers: workers})
				}
			})
		}
	}
}

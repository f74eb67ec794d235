package query

import (
	"fmt"
	"testing"

	"hare/internal/gen"
)

// benchExecute times Execute for each shape on the serving benchmark's input
// (wikitalk, δ = 600) at one and two workers.
func benchExecute(b *testing.B, shapes []struct{ name, text string }) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range shapes {
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

// BenchmarkExecuteEdge measures the edge-plan executor: a 4-node path, one
// cell of CountPath4Range's counter.
func BenchmarkExecuteEdge(b *testing.B) {
	benchExecute(b, []struct{ name, text string }{
		{"path", "a->b; b->c; c->d"},
	})
}

// BenchmarkExecuteCenter measures the center-plan executor: a 4-node
// out-star (a cell of the star complement), a 3-node star (a cell of
// FAST-Star's counter) and a triangle (three cells of FAST-Tri's).
func BenchmarkExecuteCenter(b *testing.B) {
	benchExecute(b, []struct{ name, text string }{
		{"star4", "a->b; a->c; a->d"},
		{"star3", "a->b; a->c; b->a"},
		{"triangle", "a->b; b->c; c->a"},
	})
}

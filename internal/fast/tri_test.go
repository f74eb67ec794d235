package fast

import (
	"fmt"
	"testing"

	"hare/internal/gen"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// BenchmarkTri times owner-mode FAST-Tri over every center on one thread:
// Algorithm 2 as published (CountTriRange, "owner") beside the loop the
// engine runs over the stored forward incidences (CountTriForwardRange,
// "forward"), on the serving benchmark's input (wikitalk) at a δ of its
// workloads and at ten times that. The forward incidences are built before
// the timer starts: they are kept on the graph, so a served count reads
// them warm.
func BenchmarkTri(b *testing.B) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		b.Fatal(err)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fw := temporal.ForwardIncidences(g)
	kernels := []struct {
		name  string
		count func(u temporal.NodeID, delta temporal.Timestamp, tri *motif.TriCounter)
	}{
		{"owner", func(u temporal.NodeID, delta temporal.Timestamp, tri *motif.TriCounter) {
			CountTriRange(g, u, delta, tri, true, 0, g.Degree(u))
		}},
		{"forward", func(u temporal.NodeID, delta temporal.Timestamp, tri *motif.TriCounter) {
			CountTriForwardRange(g, fw, u, delta, tri, 0, g.Degree(u))
		}},
	}
	for _, k := range kernels {
		for _, delta := range []temporal.Timestamp{600, 6000} {
			b.Run(fmt.Sprintf("%s/wikitalk/delta=%d", k.name, delta), func(b *testing.B) {
				var tri motif.TriCounter
				for b.Loop() {
					for u := 0; u < g.NumNodes(); u++ {
						k.count(temporal.NodeID(u), delta, &tri)
					}
				}
			})
		}
	}
}

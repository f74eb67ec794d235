package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// triCase is one input of the forward-kernel tests.
type triCase struct {
	name  string
	edges []temporal.Edge
	delta temporal.Timestamp
}

// triCorpus lists the shapes the forward kernel's skips could get wrong:
// small random multigraphs (ties, repeated neighbours), hub graphs (a hub
// owns few of its edges), a node pair of hundreds of multi-edges in both
// directions beside legs at both ends (the next-neighbour jumps and the
// span reuse), and a complete graph whose nodes all have one degree (the ID
// alone decides every owner), each at a random δ and at δ = 0 and 2^40.
func triCorpus() []triCase {
	r := rand.New(rand.NewSource(4701))
	var base []triCase
	for i := 0; i < 300; i++ {
		base = append(base, triCase{fmt.Sprintf("multigraph%d", i),
			randomGraph(r, 3+r.Intn(8), 1+r.Intn(80), 1+int64(r.Intn(20))).Edges(), int64(r.Intn(12))})
	}
	for i := 0; i < 3; i++ {
		base = append(base, triCase{fmt.Sprintf("hub%d", i), skewedGraph(r, 12+r.Intn(20), 300+r.Intn(300), 60).Edges(), int64(1 + r.Intn(20))})
	}
	var heavy []temporal.Edge
	for i := 0; i < 600; i++ {
		t := int64(i / 4) // four pair edges share each time
		e := temporal.Edge{From: 0, To: 1, Time: t}
		if r.Intn(2) == 0 {
			e.From, e.To = 1, 0
		}
		heavy = append(heavy, e)
		for k := r.Intn(3); k > 0; k-- {
			leg := temporal.Edge{From: temporal.NodeID(r.Intn(2)), To: temporal.NodeID(2 + r.Intn(8)), Time: t + int64(r.Intn(3))}
			if r.Intn(2) == 0 {
				leg.From, leg.To = leg.To, leg.From
			}
			heavy = append(heavy, leg)
		}
	}
	base = append(base, triCase{"heavy-pair", heavy, 3})
	var ties []temporal.Edge
	for u := temporal.NodeID(0); u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			for k := 0; k < 3; k++ {
				e := temporal.Edge{From: u, To: v, Time: int64(r.Intn(30))}
				if r.Intn(2) == 0 {
					e.From, e.To = v, u
				}
				ties = append(ties, e)
			}
		}
	}
	base = append(base, triCase{"equal-degrees", ties, 6})
	cases := slices.Clone(base)
	for _, c := range base {
		cases = append(cases, triCase{c.name + "/delta=0", c.edges, 0}, triCase{c.name + "/delta=2^40", c.edges, 1 << 40})
	}
	return cases
}

// ownerTri is owner-mode Algorithm 2 over every center: the reference.
func ownerTri(g *temporal.Graph, delta temporal.Timestamp) motif.TriCounter {
	var tri motif.TriCounter
	for u := 0; u < g.NumNodes(); u++ {
		fast.CountTriNode(g, temporal.NodeID(u), delta, &tri, true)
	}
	return tri
}

// triCuts returns 2–4 random cuts of the incidence positions, one strictly
// inside the largest hub's span, bounded by 0 and NumIncidences.
func triCuts(r *rand.Rand, g *temporal.Graph) []int {
	hub := temporal.NodeID(0)
	for u := range g.NumNodes() {
		if g.Degree(temporal.NodeID(u)) > g.Degree(hub) {
			hub = temporal.NodeID(u)
		}
	}
	cuts := []int{0, g.NumIncidences()}
	if d := g.Degree(hub); d > 1 {
		p := 0
		for u := range int(hub) {
			p += g.Degree(temporal.NodeID(u))
		}
		cuts = append(cuts, p+1+r.Intn(d-1))
	}
	for k := r.Intn(3); k > 0; k-- {
		cuts = append(cuts, r.Intn(g.NumIncidences()+1))
	}
	slices.Sort(cuts)
	return cuts
}

// The forward kernel finds owner-mode Algorithm 2's triangle cells: at every
// center, whole and split at a random first-edge cut, and through the
// engine's triangle half at 1, 2 and 3 workers (the last with every center
// sliced), summed over random incidence cuts, one inside the largest hub.
func TestTriForwardMatchesAlgorithm2(t *testing.T) {
	r := rand.New(rand.NewSource(4702))
	for _, c := range triCorpus() {
		g := temporal.FromEdges(c.edges)
		fw := temporal.ForwardIncidences(g)
		want := ownerTri(g, c.delta)
		for u := temporal.NodeID(0); int(u) < g.NumNodes(); u++ {
			var ref, whole, split motif.TriCounter
			fast.CountTriNode(g, u, c.delta, &ref, true)
			d := g.Degree(u)
			fast.CountTriForwardRange(g, fw, u, c.delta, &whole, 0, d)
			cut := r.Intn(d + 1)
			fast.CountTriForwardRange(g, fw, u, c.delta, &split, 0, cut)
			fast.CountTriForwardRange(g, fw, u, c.delta, &split, cut, d)
			if whole != ref || split != ref {
				t.Fatalf("%s: center %d: forward %v, split at %d %v, Algorithm 2 %v", c.name, u, whole, cut, split, ref)
			}
		}
		cuts := triCuts(r, g)
		for _, opts := range []engine.Options{{Workers: 1}, {Workers: 2}, {Workers: 3, DegreeThreshold: 1, ChunkSize: 2}} {
			var got motif.Counts
			for i := 0; i+1 < len(cuts); i++ {
				got.Add(engine.CountCategoryRange(g, c.delta, opts, cuts[i], cuts[i+1], motif.CategoryTri))
			}
			if got.Tri != want || got.Star.Total() != 0 || got.Pair.Total() != 0 {
				t.Fatalf("%s: cuts %v %+v: triangle half %v, Algorithm 2 %v", c.name, cuts, opts, got.Tri, want)
			}
		}
	}
}

// Fuzz wire form: byte 0 is δ (255 stands for 2^40), then three bytes per
// edge — source, destination and the time gap to the previous edge.
func encodeTriCase(c triCase) []byte {
	delta := byte(min(c.delta, 255))
	out := []byte{delta}
	var prev temporal.Timestamp
	for _, e := range temporal.FromEdges(c.edges).Edges() {
		out = append(out, byte(e.From), byte(e.To), byte(e.Time-prev))
		prev = e.Time
	}
	return out
}

func decodeTriCase(data []byte) (edges []temporal.Edge, delta temporal.Timestamp) {
	if len(data) == 0 {
		return nil, 0
	}
	if delta = temporal.Timestamp(data[0]); delta == 255 {
		delta = 1 << 40
	}
	var now temporal.Timestamp
	for rest := data[1:]; len(rest) >= 3 && len(edges) < 4096; rest = rest[3:] {
		now += temporal.Timestamp(rest[2])
		edges = append(edges, temporal.Edge{From: temporal.NodeID(rest[0]), To: temporal.NodeID(rest[1]), Time: now})
	}
	return edges, delta
}

// FuzzTriForward: any small multigraph and δ, the engine's triangle half
// (the forward kernel, every center sliced across two workers) equals
// owner-mode Algorithm 2, whole and split at a fuzzed incidence position.
func FuzzTriForward(f *testing.F) {
	for i, c := range triCorpus() {
		if i%10 == 0 || i >= 300 {
			f.Add(encodeTriCase(c), uint16(7*i+3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		edges, delta := decodeTriCase(data)
		g := temporal.FromEdges(edges)
		want := ownerTri(g, delta)
		n := g.NumIncidences()
		p := int(cut) % (n + 1)
		opts := engine.Options{Workers: 2, DegreeThreshold: 1, ChunkSize: 3}
		whole := engine.CountCategoryRange(g, delta, opts, 0, n, motif.CategoryTri)
		lo := engine.CountCategoryRange(g, delta, opts, 0, p, motif.CategoryTri)
		lo.Add(engine.CountCategoryRange(g, delta, opts, p, n, motif.CategoryTri))
		if whole.Tri != want || lo.Tri != want {
			t.Fatalf("δ=%d: whole %v, split at %d of %d %v, Algorithm 2 %v", delta, whole.Tri, p, n, lo.Tri, want)
		}
	})
}

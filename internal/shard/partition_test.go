package shard

// The incidence-position split behind count, star4 and center-plan query
// scatters, held to references that share no code with the star/pair
// sweep or the scheduled FAST-Tri: Algorithm 1 (fast.Count) for the 36
// motifs and the brute-force triple scan (brute.CountSpec) for the 4-node
// stars and the center plans, the triangle plan included.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hare/internal/brute"
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/query"
	"hare/internal/temporal"
)

type partitionCase struct {
	name  string
	g     *temporal.Graph
	delta temporal.Timestamp
}

// partitionCorpus has the shapes the star/pair sweep is held to Algorithm 1
// on: random, hub-skewed, duplicate timestamps, δ = 0, and δ so large that
// t − δ would overflow.
func partitionCorpus() []partitionCase {
	r := rand.New(rand.NewSource(31))
	random := func(nodes, edges int, span int64) *temporal.Graph {
		b := temporal.NewBuilder(edges)
		for i := 0; i < edges; i++ {
			u, v := temporal.NodeID(r.Intn(nodes)), temporal.NodeID(r.Intn(nodes))
			if u == v {
				v = (v + 1) % temporal.NodeID(nodes)
			}
			_ = b.AddEdge(u, v, r.Int63n(span))
		}
		return b.Build()
	}
	hub := func() *temporal.Graph {
		b := temporal.NewBuilder(400)
		for i := 0; i < 400; i++ {
			u, v := temporal.NodeID(r.Intn(3)), temporal.NodeID(3+r.Intn(40))
			if r.Intn(2) == 0 {
				u, v = v, u
			}
			_ = b.AddEdge(u, v, r.Int63n(300))
		}
		return b.Build()
	}
	return []partitionCase{
		{"random", random(12, 300, 200), 30},
		{"hub-skewed", hub(), 40},
		{"duplicate-timestamp", random(6, 200, 4), 1},
		{"delta-0", random(6, 200, 20), 0},
		{"huge-delta", random(8, 150, 1000), math.MaxInt64},
	}
}

// incidenceCuts returns the bounds of a random 2- to 5-way partition of
// [0, NumIncidences): up to three random cuts plus one strictly inside the
// largest hub's span, located by a prefix sum of the degrees.
func incidenceCuts(r *rand.Rand, g *temporal.Graph) []int {
	total := g.NumIncidences()
	hub, hubStart, start := 0, 0, 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(temporal.NodeID(u)); d > g.Degree(temporal.NodeID(hub)) {
			hub, hubStart = u, start
		}
		start += g.Degree(temporal.NodeID(u))
	}
	cuts := []int{0, total, hubStart + 1 + r.Intn(g.Degree(temporal.NodeID(hub))-1)}
	for k := r.Intn(4); k > 0; k-- {
		cuts = append(cuts, r.Intn(total+1))
	}
	sort.Ints(cuts)
	return cuts
}

// star4Brute is the 4-node star counter by brute force: one spec per
// direction pattern, center 0 and leaves 1, 2, 3.
func star4Brute(g *temporal.Graph, delta temporal.Timestamp) higher.Star4Counter {
	var s4 higher.Star4Counter
	for i := range s4 {
		var spec [3]brute.SpecEdge
		d1, d2, d3 := motif.PairDirs(i)
		for slot, d := range [3]motif.Dir{d1, d2, d3} {
			spec[slot] = brute.SpecEdge{Src: slot + 1, Dst: 0}
			if d == motif.Out {
				spec[slot] = brute.SpecEdge{Src: 0, Dst: slot + 1}
			}
		}
		s4[i] = brute.CountSpec(g, delta, spec)
	}
	return s4
}

// TestIncidencePartitionSumsToReferences: over random partitions of the
// incidence positions, cut inside the largest hub every time, the range
// kernels of the three node-pivot kinds sum to their references at one,
// two and three workers inside each range (the last with every center
// heavy, so cut hubs are sliced across workers too).
func TestIncidencePartitionSumsToReferences(t *testing.T) {
	centerSpecs := []string{
		"c->x; y->c; c->z", // 4-node star cell
		"a->b; a->c; b->a", // 3-node star cell
		"a->b; b->a; a->b", // pair cell
		"a->b; b->c; c->a", // triangle: FAST-Tri's three cells of M26's label
	}
	r := rand.New(rand.NewSource(30))
	for _, tc := range partitionCorpus() {
		g, delta := tc.g, tc.delta
		wantCounts := fast.Count(g, delta)
		wantS4 := star4Brute(g, delta)
		plans := make([]*query.Plan, len(centerSpecs))
		wantPlan := make([]uint64, len(centerSpecs))
		for i, text := range centerSpecs {
			s, err := query.ParseSpec(text)
			if err != nil {
				t.Fatal(err)
			}
			if plans[i] = query.Compile(s); plans[i].Kind() != query.PlanCenter {
				t.Fatalf("spec %q compiled to a %v plan", text, plans[i].Kind())
			}
			var edges [3]brute.SpecEdge
			for j, e := range s.Edges() {
				edges[j] = brute.SpecEdge{Src: e.Src, Dst: e.Dst}
			}
			wantPlan[i] = brute.CountSpec(g, delta, edges)
		}
		if wantS4.Total() == 0 || wantCounts.Star.Total() == 0 {
			t.Fatalf("%s: no stars, the case checks nothing", tc.name)
		}
		for trial := 0; trial < 3; trial++ {
			cuts := incidenceCuts(r, g)
			for _, opts := range []engine.Options{{Workers: 1}, {Workers: 2}, {Workers: 3, DegreeThreshold: 1}} {
				name := fmt.Sprintf("%s cuts %v %+v", tc.name, cuts, opts)
				ho := higher.Options{Workers: opts.Workers, DegreeThreshold: opts.DegreeThreshold}
				var counts motif.Counts
				var s4 higher.Star4Counter
				plan := make([]uint64, len(plans))
				for i := 0; i+1 < len(cuts); i++ {
					lo, hi := cuts[i], cuts[i+1]
					counts.Add(engine.CountRange(g, delta, opts, lo, hi))
					part, _ := higher.CountStar4Range(g, delta, ho, lo, hi)
					s4.Add(&part)
					for j, p := range plans {
						plan[j] += p.ExecuteRange(g, delta, ho, lo, hi)
					}
				}
				if counts != *wantCounts {
					t.Fatalf("%s: CountRange partials sum to different raw counters than fast.Count", name)
				}
				if s4 != wantS4 {
					t.Fatalf("%s: star4 partials sum %v, brute %v", name, s4, wantS4)
				}
				for j := range plans {
					if plan[j] != wantPlan[j] {
						t.Fatalf("%s: spec %q partials sum %d, brute %d", name, centerSpecs[j], plan[j], wantPlan[j])
					}
				}
			}
		}
	}
}

package higher

import (
	"fmt"
	"math/rand"
	"testing"

	"hare/internal/brute"
	"hare/internal/cputime"
	"hare/internal/engine"
	"hare/internal/fast"
	"hare/internal/gen"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// hubGraph plants a handful of very-high-degree centers on a random
// background so the heavy (intra-center / heavy-middle) stages actually run.
func hubGraph(r *rand.Rand, nodes, edges, hubEdges int, span int64) *temporal.Graph {
	b := temporal.NewBuilder(edges + hubEdges)
	for i := 0; i < edges; i++ {
		u := temporal.NodeID(r.Intn(nodes))
		v := temporal.NodeID(r.Intn(nodes))
		if u == v {
			v = (v + 1) % temporal.NodeID(nodes)
		}
		_ = b.AddEdge(u, v, r.Int63n(span))
	}
	for i := 0; i < hubEdges; i++ {
		v := temporal.NodeID(1 + r.Intn(nodes-1))
		if r.Intn(2) == 0 {
			_ = b.AddEdge(0, v, r.Int63n(span))
		} else {
			_ = b.AddEdge(v, 0, r.Int63n(span))
		}
	}
	return b.Build()
}

// The parallel star counter must be bit-identical to the sequential
// reference for every scheduling regime: auto threshold, everything-heavy,
// heavy stage disabled, workers beyond the center count.
func TestCountStar4MatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 12; trial++ {
		g := hubGraph(r, 4+r.Intn(12), 40+r.Intn(150), 60+r.Intn(60), 1+int64(r.Intn(40)))
		delta := int64(1 + r.Intn(25))
		want := Count(g, delta)
		for _, opts := range []Options{
			{Workers: 4},
			{Workers: 4, DegreeThreshold: 1, ChunkSize: 3}, // all active centers heavy
			{Workers: 4, DegreeThreshold: -1},              // heavy stage disabled
			{Workers: 32},
		} {
			got := CountStar4(g, delta, opts)
			if got != want {
				t.Fatalf("trial %d opts %+v:\n got %s\nwant %s", trial, opts, &got, &want)
			}
		}
		if got := CountStar4(g, delta, Options{Workers: 1}); got != want {
			t.Fatalf("trial %d: workers=1 path diverged", trial)
		}
	}
}

// Same contract for the path counter across its scheduling regimes.
func TestCountPath4MatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	for trial := 0; trial < 10; trial++ {
		g := hubGraph(r, 4+r.Intn(10), 30+r.Intn(120), 50+r.Intn(50), 1+int64(r.Intn(30)))
		delta := int64(1 + r.Intn(20))
		want := CountPaths(g, delta)
		for _, opts := range []Options{
			{Workers: 4},
			{Workers: 4, DegreeThreshold: 1, ChunkSize: 5}, // every middle edge heavy
			{Workers: 4, DegreeThreshold: -1},
			{Workers: 1},
		} {
			got := CountPath4(g, delta, opts)
			if got != want {
				t.Fatalf("trial %d opts %+v: parallel paths diverged", trial, opts)
			}
		}
	}
}

// Any partition of [0, n) by last-edge index must sum to the full
// all-triples counter, enumerated by brute force, and to the whole center's
// star and pair cells — the invariant the intra-center split rests on.
func TestCountAllTriplesRangePartition(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	scratch := fast.NewScratch()
	for trial := 0; trial < 20; trial++ {
		g := hubGraph(r, 3+r.Intn(5), 20+r.Intn(80), 0, 1+int64(r.Intn(10)))
		delta := int64(r.Intn(8))
		for u := 0; u < g.NumNodes(); u++ {
			want := brute.CenterTriples(g, temporal.NodeID(u), delta)
			_, wantC := CountNode(g, temporal.NodeID(u), delta, scratch)
			// Random 3-way split.
			seq := g.Seq(temporal.NodeID(u))
			n := seq.Len()
			a, b := r.Intn(n+1), r.Intn(n+1)
			if a > b {
				a, b = b, a
			}
			var got [8]uint64
			var gotC motif.Counts
			for _, cut := range [][2]int{{0, a}, {a, b}, {b, n}} {
				fast.SweepStarPairRange(seq, delta, &gotC, &got, scratch, cut[0], cut[1])
			}
			if got != want || gotC != wantC {
				t.Fatalf("trial %d node %d split (%d,%d,%d): all %v want %v, or star/pair cells differ",
					trial, u, a, b, n, got, want)
			}
		}
	}
}

// Centers with fewer than three incident edges cannot host a 4-node star
// and must be skipped, not scheduled.
func TestCountStar4SkipsLowDegreeCenters(t *testing.T) {
	g := temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1},
		{From: 2, To: 0, Time: 2},
		{From: 0, To: 3, Time: 3},
		{From: 5, To: 6, Time: 4}, // degree-1 bystanders
	})
	got := CountStar4(g, 10, Options{Workers: 4})
	if want := Count(g, 10); got != want {
		t.Fatalf("got %s want %s", &got, &want)
	}
	if got.Total() != 1 {
		t.Fatalf("total = %d, want 1", got.Total())
	}
}

// Options resolves nothing itself: it converts to engine.Options, whose
// defaults (internal/engine's TestOptionsDefaults pins chunk 64 there) then
// apply. What must hold here is that every field survives the conversion
// and the resolution callers see is the scheduler's.
func TestOptionsDefaults(t *testing.T) {
	if (Options{}).EffectiveWorkers() < 1 {
		t.Fatal("zero Options must resolve to >= 1 worker")
	}
	if (Options{Workers: 3}).EffectiveWorkers() != 3 {
		t.Fatal("explicit workers ignored")
	}
	if (Options{}).Engine() != (engine.Options{}) || (Options{ChunkSize: 7}).Engine().ChunkSize != 7 {
		t.Fatal("chunk size must reach the scheduler as given (0 = its default of 64)")
	}
	// EffectiveWorkers is exported as the scheduler's resolution, so it
	// must agree with the scheduler's own.
	if (Options{}).EffectiveWorkers() != (Options{}).Engine().EffectiveWorkers() {
		t.Fatal("EffectiveWorkers diverges from the scheduler's resolution")
	}
	g := temporal.FromEdges([]temporal.Edge{{From: 0, To: 1, Time: 0}})
	if engine.EffectiveDegreeThreshold(g, Options{DegreeThreshold: 5}.Engine()) != 5 {
		t.Fatal("explicit threshold ignored")
	}
	if engine.EffectiveDegreeThreshold(g, Options{}.Engine()) != 0 {
		t.Fatal("tiny graph should have no heavy stage")
	}
}

func BenchmarkCountStar4(b *testing.B) {
	r := rand.New(rand.NewSource(91))
	g := hubGraph(r, 400, 30_000, 8_000, 200_000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer cputime.Report(b)()
			for i := 0; i < b.N; i++ {
				CountStar4(g, 5_000, Options{Workers: workers})
			}
		})
	}
}

func BenchmarkCountPath4(b *testing.B) {
	r := rand.New(rand.NewSource(92))
	g := hubGraph(r, 400, 12_000, 3_000, 200_000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer cputime.Report(b)()
			for i := 0; i < b.N; i++ {
				CountPath4(g, 2_000, Options{Workers: workers})
			}
		})
	}
	// On 400 nodes the whole graph sits in cache. The serving benchmark's
	// traffic is wikitalk: 100k nodes, whose windows and FAST-Tri's degree
	// reads miss.
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		b.Fatal(err)
	}
	wiki, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("wikitalk/workers=%d", workers), func(b *testing.B) {
			defer cputime.Report(b)()
			for i := 0; i < b.N; i++ {
				CountPath4(wiki, 600, Options{Workers: workers})
			}
		})
	}
}

// Range counters are the shard workers' unit of work: any partition of the
// incidence positions (stars, with the FAST-Star counters beside them) or
// middle-edge IDs (paths) must sum — partial counter by partial counter — to
// the full count, at every scheduling regime, and out-of-bounds ranges must
// clamp rather than panic.
func TestCountRangePartitionsSumToFull(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	scratch := fast.NewScratch()
	for trial := 0; trial < 8; trial++ {
		g := hubGraph(r, 4+r.Intn(10), 40+r.Intn(120), 50+r.Intn(50), 1+int64(r.Intn(30)))
		delta := temporal.Timestamp(1 + r.Intn(25))
		var wantC motif.Counts
		for u := 0; u < g.NumNodes(); u++ {
			_, c := CountNode(g, temporal.NodeID(u), delta, scratch)
			wantC.Add(&c)
		}
		for _, workers := range []int{1, 3} {
			opts := Options{Workers: workers}
			wantS := CountStar4(g, delta, opts)
			wantP := CountPath4(g, delta, opts)
			cut := func(n int) []int {
				cuts := []int{0}
				for pos := 0; pos < n; {
					pos += 1 + r.Intn(n/2+1)
					if pos > n {
						pos = n
					}
					cuts = append(cuts, pos)
				}
				if cuts[len(cuts)-1] != n {
					cuts = append(cuts, n)
				}
				return cuts
			}
			var gotS Star4Counter
			var gotC motif.Counts
			for cuts, i := cut(g.NumIncidences()), 0; i+1 < len(cuts); i++ {
				part, c := CountStar4Range(g, delta, opts, cuts[i], cuts[i+1])
				gotS.Add(&part)
				gotC.Add(&c)
			}
			if gotS != wantS {
				t.Fatalf("trial %d workers %d: star4 partition sum %v != full %v", trial, workers, gotS, wantS)
			}
			if gotC != wantC {
				t.Fatalf("trial %d workers %d: star/pair partition sum differs from CountNode's", trial, workers)
			}
			var gotP PathCounter
			for cuts, i := cut(g.NumEdges()), 0; i+1 < len(cuts); i++ {
				part := CountPath4Range(g, delta, opts, cuts[i], cuts[i+1])
				gotP.Add(&part)
			}
			if gotP != wantP {
				t.Fatalf("trial %d workers %d: path4 partition sum differs from full", trial, workers)
			}
		}
	}
	// Clamping: negative lo, overlong hi, and empty/inverted ranges.
	g := hubGraph(r, 8, 60, 40, 20)
	if got, _ := CountStar4Range(g, 10, Options{Workers: 1}, -5, g.NumIncidences()+7); got != CountStar4(g, 10, Options{Workers: 1}) {
		t.Errorf("clamped star4 range differs from full count")
	}
	if got, c := CountStar4Range(g, 10, Options{}, 3, 3); got.Total() != 0 || c != (motif.Counts{}) {
		t.Errorf("empty star4 range counted %d", got.Total())
	}
	if got := CountPath4Range(g, 10, Options{}, 5, 2); got.Total() != 0 {
		t.Errorf("inverted path4 range counted %d", got.Total())
	}
	if got, want := CountPath4Range(g, 10, Options{Workers: 1}, -1, g.NumEdges()+3), CountPaths(g, 10); got != want {
		t.Errorf("clamped path4 range differs from full count")
	}
}

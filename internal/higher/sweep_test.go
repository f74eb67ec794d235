package higher

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hare/internal/brute"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// legCells is the oracle's tally, indexed [order][f out][g out] — by role,
// not by which leg a sweep happens to walk first.
type legCells [numLegOrders][2][2]uint64

// enumLegPairs is the test-only pair enumerator the sweep is checked against:
// every half-edge at the pivot's source against every half-edge at its
// destination, each pair tested on its own for distinct edges, far ends off
// the pivot pair, span ≤ δ and role order. It shares no code with the sweep —
// no windows, no cursor, no scratch.
func enumLegPairs(g *temporal.Graph, e temporal.EdgeID, delta temporal.Timestamp) (diff, same legCells) {
	b, c := g.Src()[e], g.Dst()[e]
	t := g.Times()[e]
	sb, sc := g.Seq(b), g.Seq(c)
	rank := func(id, x, y temporal.EdgeID) (r int) {
		if id > x {
			r++
		}
		if id > y {
			r++
		}
		return r
	}
	for i := 0; i < sb.Len(); i++ {
		f := sb.At(i)
		if f.ID == e || f.Other == c {
			continue
		}
		for j := 0; j < sc.Len(); j++ {
			h := sc.At(j)
			if h.ID == e || h.Other == b {
				continue
			}
			lo, hi := min(f.Time, t, h.Time), max(f.Time, t, h.Time)
			if hi-lo > delta {
				continue
			}
			o := legOrderOf(rank(f.ID, e, h.ID), rank(e, f.ID, h.ID), rank(h.ID, f.ID, e))
			if f.Other == h.Other {
				same[o][motif.DirOf(f.Out)][motif.DirOf(h.Out)]++
			} else {
				diff[o][motif.DirOf(f.Out)][motif.DirOf(h.Out)]++
			}
		}
	}
	return diff, same
}

// cellsOf reads a sweep tally out by role, the oracle's layout.
func cellsOf(p *LegPairs) (c legCells) {
	for o := LegOrder(0); o < numLegOrders; o++ {
		for _, fOut := range []bool{false, true} {
			for _, gOut := range []bool{false, true} {
				c[o][motif.DirOf(fOut)][motif.DirOf(gOut)] = p.At(o, fOut, gOut)
			}
		}
	}
	return c
}

// sweepCase is one differential input; every case keeps node IDs and time
// gaps below 256 so FuzzPairSweep can carry it as a seed.
type sweepCase struct {
	name  string
	edges []temporal.Edge
	delta temporal.Timestamp
}

func edgesOf(g *temporal.Graph) []temporal.Edge { return append([]temporal.Edge(nil), g.Edges()...) }

// sweepCorpus lists the shapes the sweep's bookkeeping could get wrong: ties
// (the EdgeID cursor against the time bound), δ = 0, multi-edges on the pivot
// pair in both directions (the skip rule, when counting and when bumping), a
// leaf endpoint (an empty window), hubs (long windows), and two hubs sharing
// many multi-edge neighbours (large same-far-end cells).
func sweepCorpus() []sweepCase {
	r := rand.New(rand.NewSource(2401))
	var cases []sweepCase
	for i := 0; i < 4; i++ {
		cases = append(cases, sweepCase{fmt.Sprintf("random%d", i),
			edgesOf(randomGraph(r, 4+r.Intn(10), 40+r.Intn(120), 1+int64(r.Intn(40)))), int64(r.Intn(25))})
	}
	for i := 0; i < 3; i++ {
		cases = append(cases, sweepCase{fmt.Sprintf("hub%d", i),
			edgesOf(hubGraph(r, 5+r.Intn(10), 40+r.Intn(80), 60+r.Intn(60), 1+int64(r.Intn(30)))), int64(1 + r.Intn(20))})
	}
	ties := edgesOf(randomGraph(r, 7, 90, 1)) // every timestamp 0
	cases = append(cases, sweepCase{"ties/delta=0", ties, 0}, sweepCase{"ties/delta=5", ties, 5})
	cases = append(cases, sweepCase{"delta=0", edgesOf(randomGraph(r, 6, 120, 4)), 0})

	// Nodes 0 and 1 joined by a dozen edges in both directions, each with
	// legs to 2..5, some of those shared.
	var multi []temporal.Edge
	for i := 0; i < 12; i++ {
		from, to := temporal.NodeID(i%2), temporal.NodeID(1-i%2)
		multi = append(multi, temporal.Edge{From: from, To: to, Time: int64(i / 2)})
		leaf := temporal.NodeID(2 + r.Intn(4))
		if r.Intn(2) == 0 {
			multi = append(multi, temporal.Edge{From: from, To: leaf, Time: int64(i / 3)})
		} else {
			multi = append(multi, temporal.Edge{From: leaf, To: to, Time: int64(i / 3)})
		}
	}
	cases = append(cases, sweepCase{"pivot-pair-multi-edges", multi, 3})

	// Node 9 is a leaf: as an endpoint its window is the pivot alone.
	leaf := append(edgesOf(randomGraph(r, 6, 40, 10)), temporal.Edge{From: 2, To: 9, Time: 5}, temporal.Edge{From: 9, To: 8, Time: 20})
	cases = append(cases, sweepCase{"leaf-endpoint", leaf, 6})

	// Hubs 0 and 1 share 200 neighbours, each tied to both hubs by three
	// edges: over a thousand multi-edges whose far ends coincide.
	var hubs []temporal.Edge
	for i := 0; i < 4; i++ {
		hubs = append(hubs, temporal.Edge{From: temporal.NodeID(i % 2), To: temporal.NodeID(1 - i%2), Time: int64(10 * i)})
	}
	for v := temporal.NodeID(2); v < 202; v++ {
		for k := 0; k < 3; k++ {
			for hub := temporal.NodeID(0); hub < 2; hub++ {
				e := temporal.Edge{From: hub, To: v, Time: int64(r.Intn(40))}
				if r.Intn(2) == 0 {
					e.From, e.To = e.To, e.From
				}
				hubs = append(hubs, e)
			}
		}
	}
	cases = append(cases, sweepCase{"two-hubs", hubs, 7})
	return cases
}

// checkSweep compares the sweep with the enumerator on one input: all 48
// cells of every pivot, and each role order run alone.
func checkSweep(t *testing.T, edges []temporal.Edge, delta temporal.Timestamp) {
	t.Helper()
	g := temporal.FromEdges(edges)
	scratch := fast.GetScratch(g.NumNodes())
	defer fast.PutScratch(scratch)
	for id := 0; id < g.NumEdges(); id++ {
		e := temporal.EdgeID(id)
		wd, ws := enumLegPairs(g, e, delta)
		var diff, same LegPairs
		CountLegPairs(g, e, delta, AllLegOrders, scratch, &diff, &same)
		if gd, gs := cellsOf(&diff), cellsOf(&same); gd != wd || gs != ws {
			t.Fatalf("pivot %d (%v) δ=%d:\n diff %v\n want %v\n same %v\n want %v", id, g.Edge(e), delta, gd, wd, gs, ws)
		}
		// One order at a time fills that order's cells and no other.
		for o := LegOrder(0); o < numLegOrders; o++ {
			var d1, s1 LegPairs
			CountLegPairs(g, e, delta, 1<<o, scratch, &d1, &s1)
			var onlyD, onlyS LegPairs
			onlyD[o], onlyS[o] = diff[o], same[o]
			if d1 != onlyD || s1 != onlyS {
				t.Fatalf("pivot %d order %d alone differs from its share of all six", id, o)
			}
		}
	}
}

func TestPairSweepMatchesEnumerator(t *testing.T) {
	for _, c := range sweepCorpus() {
		t.Run(c.name, func(t *testing.T) { checkSweep(t, c.edges, c.delta) })
	}
}

// Fuzz wire form: byte 0 is δ, then three bytes per edge — source, destination
// and the time gap to the previous edge. Self-loops are dropped by the graph
// builder, as everywhere.
func encodeSweepCase(c sweepCase) []byte {
	g := temporal.FromEdges(c.edges) // chronological order, so gaps are non-negative
	out := []byte{byte(c.delta)}
	var prev temporal.Timestamp
	for _, e := range g.Edges() {
		out = append(out, byte(e.From), byte(e.To), byte(e.Time-prev))
		prev = e.Time
	}
	return out
}

func decodeSweepCase(data []byte) (edges []temporal.Edge, delta temporal.Timestamp) {
	if len(data) == 0 {
		return nil, 0
	}
	delta = temporal.Timestamp(data[0])
	var now temporal.Timestamp
	for rest := data[1:]; len(rest) >= 3 && len(edges) < 4096; rest = rest[3:] {
		now += temporal.Timestamp(rest[2])
		edges = append(edges, temporal.Edge{From: temporal.NodeID(rest[0]), To: temporal.NodeID(rest[1]), Time: now})
	}
	return edges, delta
}

// The corpus must survive the fuzz encoding, or the seeds are not the cases.
func TestSweepCorpusRoundTripsThroughFuzzForm(t *testing.T) {
	for _, c := range sweepCorpus() {
		edges, delta := decodeSweepCase(encodeSweepCase(c))
		want, got := temporal.FromEdges(c.edges).Edges(), temporal.FromEdges(edges).Edges()
		if delta != c.delta || len(got) != len(want) {
			t.Fatalf("%s: δ %d→%d, %d→%d edges", c.name, c.delta, delta, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: edge %d came back as %v, want %v", c.name, i, got[i], want[i])
			}
		}
	}
}

// FuzzPairSweep: any small multigraph and δ, sweep ≡ enumerator.
func FuzzPairSweep(f *testing.F) {
	for _, c := range sweepCorpus() {
		f.Add(encodeSweepCase(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, delta := decodeSweepCase(data)
		checkSweep(t, edges, delta)
	})
}

// checkPath4Identity holds CountPath4Range, whole and split at cut, to the
// pair sweep's CountPaths.
func checkPath4Identity(t *testing.T, edges []temporal.Edge, delta temporal.Timestamp, cut int) {
	t.Helper()
	g := temporal.FromEdges(edges)
	want := CountPaths(g, delta)
	m := g.NumEdges()
	cut %= m + 1
	opts := Options{Workers: 2, DegreeThreshold: 1, ChunkSize: 3}
	if whole := CountPath4Range(g, delta, opts, 0, m); whole != want {
		t.Fatalf("δ=%d: merges minus triangles count %d paths, the pair sweep %d", delta, whole.Total(), want.Total())
	}
	lo, hi := CountPath4Range(g, delta, opts, 0, cut), CountPath4Range(g, delta, opts, cut, m)
	if lo.Add(&hi); lo != want {
		t.Fatalf("δ=%d: split at %d of %d sums to %d paths, want %d", delta, cut, m, lo.Total(), want.Total())
	}
}

// FuzzPath4Identity: any small multigraph and δ, CountPath4Range's leg-pair
// merges minus the triangle correction ≡ the pair sweep, whole and split at
// a fuzzed cut of the edge IDs.
func FuzzPath4Identity(f *testing.F) {
	for i, c := range sweepCorpus() {
		f.Add(encodeSweepCase(c), uint16(7*i+3))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		edges, delta := decodeSweepCase(data)
		checkPath4Identity(t, edges, delta, int(cut))
	})
}

// checkStarSweep holds fast.SweepStarPairRange, at every center of one input,
// to Algorithm 1's star and pair cells and to brute force's all-triples tally
// (the term star4 is complemented from), whole and over a three-way split by
// last edge.
func checkStarSweep(t *testing.T, edges []temporal.Edge, delta temporal.Timestamp) {
	t.Helper()
	g := temporal.FromEdges(edges)
	scratch := fast.GetScratch(g.NumNodes())
	defer fast.PutScratch(scratch)
	for u := 0; u < g.NumNodes(); u++ {
		su := g.Seq(temporal.NodeID(u))
		n := su.Len()
		var want motif.Counts
		fast.CountStarPairRange(su, delta, &want, scratch, 0, n)
		wantAll := brute.CenterTriples(g, temporal.NodeID(u), delta)
		for _, cuts := range [][]int{{0, n}, {0, n / 3, 2 * n / 3, n}} {
			var got motif.Counts
			var all [8]uint64
			for i := 0; i+1 < len(cuts); i++ {
				fast.SweepStarPairRange(su, delta, &got, &all, scratch, cuts[i], cuts[i+1])
			}
			if got != want || all != wantAll {
				t.Fatalf("center %d δ=%d cuts %v:\n got %v %v all %v\nwant %v %v all %v",
					u, delta, cuts, got.Star, got.Pair, all, want.Star, want.Pair, wantAll)
			}
		}
	}
}

// FuzzStarSweep: any small multigraph and δ, star/pair sweep ≡ Algorithm 1
// and brute force. Inputs are cut to 512 edges: the all-triples enumerator
// is cubic in a window, and a fuzzed window can hold every edge.
func FuzzStarSweep(f *testing.F) {
	for _, c := range sweepCorpus() {
		f.Add(encodeSweepCase(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, delta := decodeSweepCase(data)
		checkStarSweep(t, edges[:min(len(edges), 512)], delta)
	})
}

// bytesPerRun is testing.AllocsPerRun for bytes: one warm-up call, then the
// mean heap bytes allocated per call, on one P so nothing else allocates.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Neither the leg-pair merges nor FAST-Tri keep a per-node scratch, so a
// warmed-up range count allocates the same few bytes whatever the graph's
// node count: a fresh scratch alone would be 20 bytes per node.
func TestCountPath4RangeAllocationIndependentOfNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	perCall := func(nodes int) float64 {
		edges := []temporal.Edge{{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 3, Time: 3},
			{From: temporal.NodeID(nodes - 2), To: temporal.NodeID(nodes - 1), Time: 4}}
		g := temporal.FromEdges(edges)
		opts := Options{Workers: 1}
		return bytesPerRun(10, func() { CountPath4Range(g, 10, opts, 0, g.NumEdges()) })
	}
	small, large := perCall(10), perCall(400_000)
	if large > small+1024 {
		t.Fatalf("CountPath4Range allocates %.0f B per call on 400k nodes, %.0f B on 10: something grows with the node count", large, small)
	}
}

package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hare/internal/brute"
	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// trials scales a randomized-trial count down under -short (the CI race job
// runs with it), keeping full coverage on the plain test pass.
func trials(t *testing.T, n int) int {
	t.Helper()
	if testing.Short() {
		return max(1, n/5)
	}
	return n
}

// feedBatches ingests edges through AddBatch in slices whose sizes cycle
// through sizes.
func feedBatches(t *testing.T, c *Counter, edges []temporal.Edge, sizes ...int) {
	t.Helper()
	for i := 0; len(edges) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(edges))
		if err := c.AddBatch(edges[:n]); err != nil {
			t.Fatal(err)
		}
		edges = edges[n:]
	}
}

// liveSubset returns the edges inside the window [lastT-δ, lastT], in input
// order (which preserves the tie convention under FromEdges' stable sort).
func liveSubset(edges []temporal.Edge, lastT, delta temporal.Timestamp) []temporal.Edge {
	var out []temporal.Edge
	for _, e := range edges {
		if e.Time >= lastT-delta {
			out = append(out, e)
		}
	}
	return out
}

// TestAddBatchMatchesSequential is the core equivalence property of the
// parallel ingest path: for random streams over a few to a few thousand
// node IDs, batch splits on both sides of MinParallelBatch, worker counts,
// and both modes, AddBatch's matrices are bit-identical to
// sequential Add's and to the batch FAST oracle.
func TestAddBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < trials(t, 30); trial++ {
		nodes := 2 + r.Intn(20)
		if trial%2 == 1 {
			nodes = 2 + r.Intn(3000) // sparse: the window table spans thousands of IDs
		}
		edges := sortedRandomEdges(r, nodes, 2*MinParallelBatch+r.Intn(1500), 1+int64(r.Intn(80)))
		delta := int64(r.Intn(40))
		// Batch sizes alternate below and at or above MinParallelBatch, and
		// workers >= 2, so every trial runs both the sequential fallback and
		// the phased path on one counter.
		small := 1 + r.Intn(MinParallelBatch-1)
		large := MinParallelBatch + r.Intn(len(edges)-MinParallelBatch+1)
		workers := 2 + r.Intn(7)
		mode := Mode(r.Intn(2))
		// Mid-way through the first large batch, an edge names an ID above
		// every earlier one, so the window table grows inside a phased batch.
		grow := small + (min(small+large, len(edges))-small)/2
		edges[grow].To = temporal.NodeID(nodes + r.Intn(nodes))

		seq, err := NewCounter(Options{Delta: delta, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, seq, edges)

		par, err := NewCounter(Options{Delta: delta, Mode: mode, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		feedBatches(t, par, edges, small, large)

		label := fmt.Sprintf("trial %d (δ=%d, %d nodes, %d edges, batches=%d/%d, workers=%d, mode=%d)",
			trial, delta, nodes, len(edges), small, large, workers, mode)
		want := seq.Matrix()
		got := par.Matrix()
		if !got.Equal(&want) {
			t.Fatalf("%s: batch vs sequential diff %v", label, got.Diff(&want))
		}
		oracle := fast.Count(temporal.FromEdges(edges), delta).ToMatrix()
		if !got.Equal(&oracle) {
			t.Fatalf("%s: batch vs FAST diff %v", label, got.Diff(&oracle))
		}
		if mode == Sliding {
			ws, err := seq.WindowMatrix()
			if err != nil {
				t.Fatal(err)
			}
			wp, err := par.WindowMatrix()
			if err != nil {
				t.Fatal(err)
			}
			if !wp.Equal(&ws) {
				t.Fatalf("%s: window batch vs sequential diff %v", label, wp.Diff(&ws))
			}
		}
		if par.Edges() != seq.Edges() || par.SelfLoopsDropped() != seq.SelfLoopsDropped() {
			t.Fatalf("%s: edge accounting diverged", label)
		}
	}
}

// TestSlidingWindowMatchesBrute cross-checks WindowMatrix at every
// checkpoint against a brute-force count over exactly the window's edge
// subset — the defining property of sliding mode.
func TestSlidingWindowMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < trials(t, 20); trial++ {
		nodes := 2 + r.Intn(10)
		edges := sortedRandomEdges(r, nodes, 30+r.Intn(200), 1+int64(r.Intn(60)))
		delta := int64(r.Intn(25))
		c, err := NewSliding(delta)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range edges {
			if err := c.Add(e.From, e.To, e.Time); err != nil {
				t.Fatal(err)
			}
			if i%7 != 6 {
				continue
			}
			got, err := c.WindowMatrix()
			if err != nil {
				t.Fatal(err)
			}
			live := liveSubset(edges[:i+1], e.Time, delta)
			want := brute.Count(temporal.FromEdges(live), delta)
			if !got.Equal(&want) {
				t.Fatalf("trial %d after %d edges (δ=%d): window diff %v",
					trial, i+1, delta, got.Diff(&want))
			}
			// Cumulative counts must be unaffected by retirement.
			cum := c.Matrix()
			wantCum := brute.Count(temporal.FromEdges(edges[:i+1]), delta)
			if !cum.Equal(&wantCum) {
				t.Fatalf("trial %d after %d edges: cumulative diff %v",
					trial, i+1, cum.Diff(&wantCum))
			}
		}
	}
}

// Sliding mode through the parallel path must agree with brute force on the
// window subset too (larger batches, several workers).
func TestSlidingBatchMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < trials(t, 8); trial++ {
		edges := sortedRandomEdges(r, 2+r.Intn(14), 400+r.Intn(400), 1+int64(r.Intn(100)))
		delta := int64(5 + r.Intn(30))
		c, err := NewCounter(Options{Delta: delta, Mode: Sliding, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		batch := 64 + r.Intn(300)
		for start := 0; start < len(edges); start += batch {
			end := min(start+batch, len(edges))
			if err := c.AddBatch(edges[start:end]); err != nil {
				t.Fatal(err)
			}
			got, err := c.WindowMatrix()
			if err != nil {
				t.Fatal(err)
			}
			lastT := edges[end-1].Time
			want := brute.Count(temporal.FromEdges(liveSubset(edges[:end], lastT, delta)), delta)
			if !got.Equal(&want) {
				t.Fatalf("trial %d after %d edges (δ=%d, batch=%d): diff %v",
					trial, end, delta, batch, got.Diff(&want))
			}
		}
	}
}

func TestAdvanceDrainsWindow(t *testing.T) {
	c, err := NewSliding(10)
	if err != nil {
		t.Fatal(err)
	}
	// A tight triangle: all three motif edges inside one window.
	_ = c.Add(0, 1, 100)
	_ = c.Add(1, 2, 103)
	_ = c.Add(2, 0, 106)
	w, _ := c.WindowMatrix()
	if w.Total() != 1 {
		t.Fatalf("window total = %d, want 1", w.Total())
	}
	// Advancing within δ of the first edge keeps the instance live.
	if err := c.Advance(109); err != nil {
		t.Fatal(err)
	}
	w, _ = c.WindowMatrix()
	if w.Total() != 1 {
		t.Fatalf("window total after Advance(109) = %d, want 1", w.Total())
	}
	// Advancing past it drains the window; cumulative counts stay.
	if err := c.Advance(200); err != nil {
		t.Fatal(err)
	}
	w, _ = c.WindowMatrix()
	if w.Total() != 0 {
		t.Fatalf("window total after Advance(200) = %d, want 0", w.Total())
	}
	if m := c.Matrix(); m.Total() != 1 {
		t.Fatalf("cumulative total after Advance = %d, want 1", m.Total())
	}
	if err := c.Advance(150); err == nil {
		t.Fatal("want error for Advance behind watermark")
	}
	// New edges behind the advanced watermark are rejected.
	if err := c.Add(0, 1, 150); err == nil {
		t.Fatal("want error for Add behind advanced watermark")
	}
}

func TestAddBatchRejectsAtomically(t *testing.T) {
	c, err := NewCounter(Options{Delta: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	before := c.Matrix()
	bad := []temporal.Edge{
		{From: 1, To: 2, Time: 101},
		{From: 2, To: 3, Time: 99}, // out of order within the batch
	}
	if err := c.AddBatch(bad); err == nil {
		t.Fatal("want error for out-of-order batch")
	}
	bad2 := []temporal.Edge{{From: 1, To: 2, Time: 50}} // behind the stream
	if err := c.AddBatch(bad2); err == nil {
		t.Fatal("want error for batch behind watermark")
	}
	bad3 := []temporal.Edge{{From: -1, To: 2, Time: 101}}
	if err := c.AddBatch(bad3); err == nil {
		t.Fatal("want error for negative node id")
	}
	after := c.Matrix()
	if c.Edges() != 1 || !after.Equal(&before) {
		t.Fatal("rejected batch mutated the counter")
	}
	if err := c.AddBatch(nil); err != nil {
		t.Fatal(err)
	}
}

// EdgeIDs are int32; both ingest paths must refuse to wrap them rather than
// silently corrupt the windows' ID order.
func TestEdgeIDExhaustion(t *testing.T) {
	c, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	c.nextID = math.MaxInt32 - 1
	if err := c.Add(0, 1, 5); err != nil {
		t.Fatal(err) // one id left: fine
	}
	if err := c.Add(1, 2, 6); err == nil {
		t.Fatal("want error when the id space is exhausted")
	}
	if err := c.AddBatch([]temporal.Edge{{From: 1, To: 2, Time: 6}}); err == nil {
		t.Fatal("want batch error when the id space is exhausted")
	}
	// Self-loops consume no ids and still pass.
	if err := c.AddBatch([]temporal.Edge{{From: 2, To: 2, Time: 7}}); err != nil {
		t.Fatal(err)
	}
}

func TestAddBatchSelfLoops(t *testing.T) {
	c, err := NewCounter(Options{Delta: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	edges := []temporal.Edge{
		{From: 0, To: 0, Time: 1},
		{From: 0, To: 1, Time: 2},
		{From: 3, To: 3, Time: 3},
	}
	if err := c.AddBatch(edges); err != nil {
		t.Fatal(err)
	}
	if c.SelfLoopsDropped() != 2 || c.Edges() != 1 {
		t.Fatalf("loops=%d edges=%d", c.SelfLoopsDropped(), c.Edges())
	}
}

// A parallel-path batch that filters down to zero real edges still advances
// the watermark, so sliding mode must retire what fell out of the window.
func TestSlidingAllLoopBatchRetires(t *testing.T) {
	c, err := NewCounter(Options{Delta: 10, Mode: Sliding, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Add(0, 1, 100)
	_ = c.Add(1, 2, 103)
	_ = c.Add(2, 0, 106)
	w, _ := c.WindowMatrix()
	if w.Total() != 1 {
		t.Fatalf("window total = %d, want 1", w.Total())
	}
	// Enough self-loops to take the parallel path, far past the window.
	loops := make([]temporal.Edge, MinParallelBatch+64)
	for i := range loops {
		loops[i] = temporal.Edge{From: 7, To: 7, Time: 1000}
	}
	if err := c.AddBatch(loops); err != nil {
		t.Fatal(err)
	}
	w, _ = c.WindowMatrix()
	if w.Total() != 0 {
		t.Fatalf("window total after all-loop batch = %d, want 0", w.Total())
	}
	if m := c.Matrix(); m.Total() != 1 {
		t.Fatalf("cumulative total = %d, want 1", m.Total())
	}
}

func TestWindowMatrixRequiresSliding(t *testing.T) {
	c, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WindowMatrix(); err == nil {
		t.Fatal("want error for WindowMatrix on cumulative counter")
	}
	if c.Mode() != Cumulative {
		t.Fatal("New must build a cumulative counter")
	}
	s, err := NewSliding(10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != Sliding {
		t.Fatal("NewSliding must build a sliding counter")
	}
}

func TestNewCounterValidation(t *testing.T) {
	if _, err := NewCounter(Options{Delta: -1}); err == nil {
		t.Fatal("want error for negative δ")
	}
	if _, err := NewCounter(Options{Delta: 1, Mode: Mode(7)}); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

// TestHubBurstStaysInNodeSpace checks the scans' memory model: a hub
// window with thousands of distinct neighbours is counted on a dense
// fast.Scratch sized to the node space, with no per-edge maps and no growth
// past it — arrival and retirement scans alike allocate nothing.
func TestHubBurstStaysInNodeSpace(t *testing.T) {
	const hubNbrs = 5000
	const n = hubNbrs + 2 // neighbours 1..hubNbrs, the far endpoint n-1
	var uw, vw temporal.Seq
	for i := 0; i < 2*hubNbrs; i++ {
		// The hub 0 and the node n-1 both talk to every neighbour twice, so
		// every neighbour closes stars at each and triangles on 0->n-1.
		uw.ID = append(uw.ID, temporal.EdgeID(2*i))
		vw.ID = append(vw.ID, temporal.EdgeID(2*i+1))
		for _, w := range []*temporal.Seq{&uw, &vw} {
			w.Time = append(w.Time, int64(i))
			w.Other = append(w.Other, temporal.NodeID(1+i%hubNbrs))
		}
		uw.Out = append(uw.Out, i%2 == 0)
		vw.Out = append(vw.Out, i%3 == 0)
	}
	s := fast.NewScratch()
	s.Grow(n)
	const delta = 1 << 40
	var counts motif.Counts
	arrive := func() { countArrival(&counts, uw, vw, 0, n-1, delta, s) }
	retire := func() { countRetire(&counts, uw, vw, 0, n-1, 0, delta, s) }
	for name, scan := range map[string]func(){"countArrival": arrive, "countRetire": retire} {
		counts = motif.Counts{}
		if avg := testing.AllocsPerRun(3, scan); avg != 0 {
			t.Errorf("%s on a %d-neighbour hub allocates %.1f times, want 0", name, hubNbrs, avg)
		}
		if counts.Star.Total() == 0 || counts.Tri.Total() == 0 {
			t.Errorf("%s found no stars or triangles: the burst is not exercised", name)
		}
	}
}

func TestFeed(t *testing.T) {
	input := `# comment
0 1 10
1 2 12
% another comment

2 0 14
3 3 15
0 3 16
`
	c, err := NewCounter(Options{Delta: 100, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var batches, edgesSeen int
	n, err := c.Feed(strings.NewReader(input), FeedOptions{
		BatchSize: 2,
		OnBatch:   func(_ *Counter, n int) { batches++; edgesSeen += n },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || edgesSeen != 5 || batches != 3 {
		t.Fatalf("n=%d edgesSeen=%d batches=%d", n, edgesSeen, batches)
	}
	if c.Edges() != 4 || c.SelfLoopsDropped() != 1 {
		t.Fatalf("edges=%d loops=%d", c.Edges(), c.SelfLoopsDropped())
	}
	// Same counts as the equivalent Add loop.
	want := motif.Matrix{}
	{
		ref, _ := New(100)
		_ = ref.Add(0, 1, 10)
		_ = ref.Add(1, 2, 12)
		_ = ref.Add(2, 0, 14)
		_ = ref.Add(3, 3, 15)
		_ = ref.Add(0, 3, 16)
		want = ref.Matrix()
	}
	got := c.Matrix()
	if !got.Equal(&want) {
		t.Fatalf("feed vs add diff %v", got.Diff(&want))
	}

	for _, bad := range []string{
		"0 1\n", "x 1 2\n", "0 y 2\n", "0 1 z\n", "0 1 5\n0 1 3\n",
		"-5 1 10\n",           // negative id must fail at the line, not wrap
		"-4294967291 2 20\n",  // below MinInt32: would alias node +5 if int32-converted
		"99999999999 2 20\n",  // above MaxInt32
		"0 1 5\n\n# c\n0 1 3", // ordering checked across comments too
	} {
		c2, _ := New(10)
		if _, err := c2.Feed(strings.NewReader(bad), FeedOptions{}); err == nil {
			t.Fatalf("want error for input %q", bad)
		}
	}
	// Ingestion errors must name the exact input line, even past the first
	// batch: edge on line 4 (after a comment) is out of order.
	c3, _ := New(10)
	_, err = c3.Feed(strings.NewReader("1 2 10\n2 3 11\n# note\n3 4 5\n"), FeedOptions{BatchSize: 2})
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line-numbered out-of-order error, got %v", err)
	}
}

// TestFeedParallelParseEquivalence: Feed with ParseWorkers must be
// bit-identical to the sequential scanner path — same totals, same counts,
// same error on the same line — over valid and invalid inputs.
func TestFeedParallelParseEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var sb strings.Builder
	tnow := int64(0)
	for i := 0; i < 5000; i++ {
		switch {
		case i%97 == 0:
			sb.WriteString("# checkpoint\n")
		case i%131 == 0:
			sb.WriteString("\n")
		default:
			tnow += int64(r.Intn(3))
			fmt.Fprintf(&sb, "%d %d %d\n", r.Intn(40), r.Intn(40), tnow)
		}
	}
	inputs := []string{
		sb.String(),
		"0 1 10\n1 2 12\n2 0 14\n3 3 15\n0 3 16\n",
		"1 2 10\n2 3 11\n# note\n3 4 5\n", // out of order at line 4
		"1 2 10\nbogus\n2 3 11\n",         // parse error at line 2
		"1 2 10\n99999999999 2 20\n",      // id out of range at line 2
		"",                                // empty stream
	}
	for i, input := range inputs {
		seq, err1 := NewCounter(Options{Delta: 50, Workers: 2})
		if err1 != nil {
			t.Fatal(err1)
		}
		n1, ferr1 := seq.Feed(strings.NewReader(input), FeedOptions{BatchSize: 64})
		par, err2 := NewCounter(Options{Delta: 50, Workers: 2})
		if err2 != nil {
			t.Fatal(err2)
		}
		n2, ferr2 := par.Feed(strings.NewReader(input), FeedOptions{BatchSize: 64, ParseWorkers: 4})
		if n1 != n2 {
			t.Fatalf("input %d: totals %d vs %d", i, n1, n2)
		}
		if (ferr1 == nil) != (ferr2 == nil) || (ferr1 != nil && ferr1.Error() != ferr2.Error()) {
			t.Fatalf("input %d: errors %v vs %v", i, ferr1, ferr2)
		}
		sm, pm := seq.Matrix(), par.Matrix()
		if !sm.Equal(&pm) {
			t.Fatalf("input %d: counts diverge: %v", i, sm.Diff(&pm))
		}
		if seq.Edges() != par.Edges() || seq.SelfLoopsDropped() != par.SelfLoopsDropped() {
			t.Fatalf("input %d: edges %d/%d loops %d/%d", i,
				seq.Edges(), par.Edges(), seq.SelfLoopsDropped(), par.SelfLoopsDropped())
		}
	}
}

// The big-batch path must also agree when one AddBatch call spans many
// multiples of δ, so edges arrive and expire inside the same call.
func TestSlidingExpiryWithinOneBatch(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	edges := sortedRandomEdges(r, 10, 800, 2000) // span >> δ
	delta := int64(20)
	c, err := NewCounter(Options{Delta: delta, Mode: Sliding, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBatch(edges); err != nil {
		t.Fatal(err)
	}
	lastT := edges[len(edges)-1].Time
	got, err := c.WindowMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := brute.Count(temporal.FromEdges(liveSubset(edges, lastT, delta)), delta)
	if !got.Equal(&want) {
		t.Fatalf("diff %v", got.Diff(&want))
	}
	cum := c.Matrix()
	wantCum := fast.Count(temporal.FromEdges(edges), delta).ToMatrix()
	if !cum.Equal(&wantCum) {
		t.Fatalf("cumulative diff %v", cum.Diff(&wantCum))
	}
}

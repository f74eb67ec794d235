package live

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hare/internal/engine"
	"hare/internal/motif"
	"hare/internal/temporal"
)

func mustNew(t *testing.T, name string, opts Options) *Dataset {
	t.Helper()
	d, err := New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", Options{Delta: 10}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New("x", Options{Delta: -1}); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, err := New("x", Options{Delta: 1, Z: -2}); err == nil {
		t.Fatal("negative z accepted")
	}
	if _, err := New("x", Options{Delta: 1, Warmup: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestVersioningAndAtomicReject(t *testing.T) {
	d := mustNew(t, "txn", Options{Delta: 100})
	if v := d.Version(); v != 1 {
		t.Fatalf("empty dataset version = %d, want 1", v)
	}

	res, err := d.Ingest([]temporal.Edge{
		{From: 0, To: 1, Time: 10}, {From: 1, To: 2, Time: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Accepted != 2 || res.Watermark != 20 {
		t.Fatalf("res = %+v, want version 2, accepted 2, watermark 20", res)
	}

	// An empty batch accepts trivially and must not advance the version.
	res, err = d.Ingest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.Accepted != 0 {
		t.Fatalf("empty batch res = %+v, want version 2, accepted 0", res)
	}

	// A batch with one out-of-order edge is rejected atomically: version,
	// counts and log are untouched.
	before := d.Matrix()
	_, err = d.Ingest([]temporal.Edge{
		{From: 2, To: 3, Time: 30}, {From: 3, To: 4, Time: 5},
	})
	if err == nil || !strings.Contains(err.Error(), "batch edge 1") {
		t.Fatalf("out-of-order batch error = %v, want batch-indexed rejection", err)
	}
	if v := d.Version(); v != 2 {
		t.Fatalf("version after rejected batch = %d, want 2", v)
	}
	after := d.Matrix()
	if !after.Equal(&before) {
		t.Fatal("rejected batch mutated counts")
	}
	if st := d.Stats(); st.Rejected != 1 || st.Ingests != 1 || st.Edges != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIngestTextLineNumberedErrors(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed", "0 1 10\nnot an edge\n", "line 2"},
		{"out-of-range", "0 1 10\n99999999999 1 20\n", "line 2: node id out of range"},
		{"out-of-order", "# comment\n0 1 10\n1 2 5\n", "line 3: out-of-order edge at t=5 (last 10)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := mustNew(t, "txn", Options{Delta: 100})
			_, err := d.IngestText(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if v := d.Version(); v != 1 {
				t.Fatalf("version after rejected text batch = %d, want 1", v)
			}
			if st := d.Stats(); st.Rejected != 1 {
				t.Fatalf("rejected = %d, want 1", st.Rejected)
			}
		})
	}

	// Ordering is enforced across batches too: the watermark carries over.
	d := mustNew(t, "txn", Options{Delta: 100})
	if _, err := d.IngestText(strings.NewReader("0 1 10\n")); err != nil {
		t.Fatal(err)
	}
	_, err := d.IngestText(strings.NewReader("1 2 3\n"))
	if err == nil || !strings.Contains(err.Error(), "line 1: out-of-order edge at t=3 (last 10)") {
		t.Fatalf("cross-batch ordering error = %v", err)
	}
}

func TestCumulativeCountsMatchBatchEngine(t *testing.T) {
	// A deliberately motif-dense little stream, ingested in uneven
	// batches: the online cumulative counts must be bit-identical to the
	// batch engine over the same edges.
	var edges []temporal.Edge
	for i := 0; i < 120; i++ {
		edges = append(edges,
			temporal.Edge{From: temporal.NodeID(i % 7), To: temporal.NodeID((i + 1) % 7), Time: temporal.Timestamp(i * 3)},
			temporal.Edge{From: temporal.NodeID((i + 2) % 5), To: temporal.NodeID(i % 5), Time: temporal.Timestamp(i*3 + 1)},
		)
	}
	const delta = 50
	d := mustNew(t, "txn", Options{Delta: delta})
	for lo := 0; lo < len(edges); {
		hi := lo + 17
		if hi > len(edges) {
			hi = len(edges)
		}
		if _, err := d.Ingest(edges[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	want := engine.Count(temporal.FromEdges(edges), delta, engine.Options{}).ToMatrix()
	got := d.Matrix()
	if !got.Equal(&want) {
		t.Fatalf("online counts diverge from batch engine: %v", got.Diff(&want))
	}
	// The graph snapshot must hold the same edges (and is cached per
	// version: two calls at one version return the same graph).
	g1, g2 := d.Graph(), d.Graph()
	if g1 != g2 {
		t.Fatal("snapshot not cached within a version")
	}
	if g1.NumEdges() != len(edges) {
		t.Fatalf("snapshot edges = %d, want %d", g1.NumEdges(), len(edges))
	}
	if n, e, ok := d.SnapshotDims(); !ok || e != len(edges) || n != g1.NumNodes() {
		t.Fatalf("SnapshotDims = (%d,%d,%v)", n, e, ok)
	}
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: 100000}}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.SnapshotDims(); ok {
		t.Fatal("SnapshotDims fresh after ingest invalidated the snapshot")
	}
	if g3 := d.Graph(); g3 == g1 || g3.NumEdges() != len(edges)+1 {
		t.Fatal("snapshot not rebuilt after version advance")
	}
}

// plantPingPong appends the examples/anomaly attack construction: tight
// a⇄b message bursts (a→b, b→a, a→b within seconds) — motif M65.
func plantPingPong(t0 temporal.Timestamp, pairs int) []temporal.Edge {
	var out []temporal.Edge
	for i := 0; i < pairs; i++ {
		a := temporal.NodeID(100 + 2*i)
		b := a + 1
		base := t0 + temporal.Timestamp(i)
		out = append(out,
			temporal.Edge{From: a, To: b, Time: base},
			temporal.Edge{From: b, To: a, Time: base + 7},
			temporal.Edge{From: a, To: b, Time: base + 15},
		)
	}
	// Per-burst edges interleave in time; globally sort by construction:
	// bursts start 1 apart but spread 15, so merge-sort by time.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Time < out[j-1].Time; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestWatchAlertsOnPlantedAnomalyAndStaysSilentOnNull(t *testing.T) {
	const delta = 600
	d := mustNew(t, "msgs", Options{Delta: delta})
	ch, cancel := d.Subscribe()
	defer cancel()

	// Quiet baseline: far-apart single edges form no in-window motifs, so
	// every warmup reading is all-zero (a zero-variance ensemble).
	for i := 0; i < 6; i++ {
		_, err := d.Ingest([]temporal.Edge{{
			From: temporal.NodeID(i), To: temporal.NodeID(i + 1),
			Time: temporal.Timestamp(10000 * i),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Alerts != 0 {
			t.Fatalf("baseline batch %d raised %d alerts", i, st.Alerts)
		}
	}

	// The planted attack: 8 ping-pong bursts inside one window.
	res, err := d.Ingest(plantPingPong(100000, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alerts) == 0 {
		t.Fatal("planted ping-pong burst raised no alerts")
	}
	var m65 *Alert
	for i := range res.Alerts {
		if res.Alerts[i].Motif == "M65" {
			m65 = &res.Alerts[i]
		}
	}
	if m65 == nil {
		t.Fatalf("alerts %v missing the ping-pong signature M65", res.Alerts)
	}
	if !math.IsInf(m65.Z, 1) || m65.Window < 8 || m65.Version != res.Version {
		t.Fatalf("M65 alert = %+v, want z=+Inf, window >= 8, version %d", m65, res.Version)
	}
	// The window reading really is the sliding count.
	wm := d.WindowMatrix()
	if got := wm.At(motif.Label{Row: 6, Col: 5}); got != m65.Window {
		t.Fatalf("alert window %d != WindowMatrix M65 %d", m65.Window, got)
	}

	// Subscribers received the published alerts.
	got := 0
	for range res.Alerts {
		select {
		case a := <-ch:
			if a.Dataset != "msgs" {
				t.Fatalf("alert dataset = %q", a.Dataset)
			}
			got++
		default:
			t.Fatalf("subscriber received %d alerts, want %d", got, len(res.Alerts))
		}
	}

	// MarshalJSON: infinite z encodes as z_inf, finite z as z.
	data, err := json.Marshal(m65)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"z_inf":"+"`) || strings.Contains(string(data), `"z":`) {
		t.Fatalf("infinite-z alert JSON = %s", data)
	}
	fin := Alert{Motif: "M11", Z: 5.5}
	data, err = json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"z":5.5`) {
		t.Fatalf("finite-z alert JSON = %s", data)
	}
}

func TestWatchNullStreamNeverAlerts(t *testing.T) {
	// The null stream: organic-looking steady traffic with no planted
	// burst. Per batch one fresh-pair edge — window counts never reach
	// MinCount, so the watcher must stay silent forever.
	d := mustNew(t, "null", Options{Delta: 600})
	ch, cancel := d.Subscribe()
	defer cancel()
	for i := 0; i < 50; i++ {
		_, err := d.Ingest([]temporal.Edge{{
			From: temporal.NodeID(2 * i), To: temporal.NodeID(2*i + 1),
			Time: temporal.Timestamp(100 * i),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Alerts != 0 {
		t.Fatalf("null stream raised %d alerts", st.Alerts)
	}
	select {
	case a := <-ch:
		t.Fatalf("null stream delivered alert %+v", a)
	default:
	}
}

func TestSubscribeCancelAndDrop(t *testing.T) {
	// A near-zero z threshold: every burst batch alerts even as the
	// trailing baseline absorbs the repeats, so we can overfill buffers.
	d := mustNew(t, "x", Options{Delta: 600, MinCount: 1, Warmup: 1, Z: 1e-9})
	ch, cancel := d.Subscribe()
	if st := d.Stats(); st.Subscribers != 1 {
		t.Fatalf("subscribers = %d, want 1", st.Subscribers)
	}
	cancel()
	cancel() // idempotent
	if st := d.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscribers after cancel = %d, want 0", st.Subscribers)
	}
	if _, ok := <-ch; ok {
		t.Fatal("canceled subscriber channel not closed")
	}

	// A full subscriber buffer drops alerts instead of blocking ingest.
	slow, cancel2 := d.Subscribe()
	defer cancel2()
	t0 := temporal.Timestamp(0)
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: t0}}); err != nil {
		t.Fatal(err) // warmup reading
	}
	for i := 0; i < subscriberBuffer+8; i++ {
		t0 += 2000
		// Each batch is a burst of distinct in-window pair motifs: with
		// MinCount 1 and a (near-)zero baseline it alerts every time.
		batch := plantPingPong(t0, 2)
		if _, err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no alerts dropped after overfilling the buffer (alerts=%d)", st.Alerts)
	}
	if len(slow) != subscriberBuffer {
		t.Fatalf("subscriber holds %d alerts, want full buffer %d", len(slow), subscriberBuffer)
	}
}

func TestConcurrentIngestAndReads(t *testing.T) {
	// Race hygiene: one ingester, many concurrent readers of every
	// accessor. Run under -race this pins the locking discipline.
	d := mustNew(t, "conc", Options{Delta: 100})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Version()
				d.Matrix()
				d.WindowMatrix()
				d.Graph()
				d.Stats()
				d.Edges()
			}
		}()
	}
	for i := 0; i < 60; i++ {
		batch := []temporal.Edge{
			{From: temporal.NodeID(i % 9), To: temporal.NodeID((i + 1) % 9), Time: temporal.Timestamp(5 * i)},
			{From: temporal.NodeID((i + 3) % 9), To: temporal.NodeID(i % 9), Time: temporal.Timestamp(5*i + 2)},
		}
		if _, err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := d.Version(), uint64(61); got != want {
		t.Fatalf("version = %d, want %d", got, want)
	}
}

func TestIngestTextAcceptsAndCounts(t *testing.T) {
	d := mustNew(t, "txt", Options{Delta: 100})
	body := "# header\n0 1 10\n1 2 15\n2 2 16\n2 0 20\n"
	res, err := d.IngestText(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 4 || res.Version != 2 || res.Watermark != 20 {
		t.Fatalf("res = %+v", res)
	}
	// The self-loop (2 2 16) is accepted, counted as a loop, and dropped
	// from the motif counts — like Add and batch loading.
	if d.Edges() != 3 {
		t.Fatalf("counted edges = %d, want 3 (self-loop dropped)", d.Edges())
	}
	want := engine.Count(temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 10}, {From: 1, To: 2, Time: 15}, {From: 2, To: 0, Time: 20},
	}), 100, engine.Options{}).ToMatrix()
	got := d.Matrix()
	if !got.Equal(&want) {
		t.Fatalf("text-ingested counts diverge: %v", got.Diff(&want))
	}
}

func TestAlertString(t *testing.T) {
	// Finite-z alerts survive a JSON round trip through the wire form.
	a := Alert{Dataset: "d", Version: 3, Motif: "M26", Window: 9, Mean: 1.5, Std: 0.5, Z: 15, Watermark: 42}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]any{
		"dataset": "d", "version": 3.0, "motif": "M26", "window": 9.0,
		"mean": 1.5, "std": 0.5, "z": 15.0, "watermark": 42.0,
	} {
		if m[k] != want {
			t.Fatalf("wire %q = %v, want %v (json: %s)", k, m[k], want, data)
		}
	}
	if _, ok := m["z_inf"]; ok {
		t.Fatalf("finite alert carries z_inf: %s", data)
	}
}

func TestIngestErrorsMentionLiveTier(t *testing.T) {
	// The package prefixes its line-numbered rejections so operators can
	// tell serving-tier rejections from library misuse.
	d := mustNew(t, "x", Options{Delta: 10})
	_, err := d.IngestText(strings.NewReader("nope\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "live: line 1: ") {
		t.Fatalf("err = %v", err)
	}
	_ = fmt.Sprintf("%v", err)
}

func TestIngestNeverWaitsForSnapshotBuild(t *testing.T) {
	// Structural: with the builder's mutex held — a snapshot build in
	// progress, as far as the rest of the dataset can tell — everything
	// but Graph must still return. A method that needed that mutex would
	// hang here, on this goroutine, and fail the run by deadlock.
	d := mustNew(t, "nowait", Options{Delta: 100})
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	d.Graph()

	d.buildMu.Lock()
	if _, err := d.Ingest([]temporal.Edge{{From: 2, To: 0, Time: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.IngestText(strings.NewReader("0 2 4\n")); err != nil {
		t.Fatal(err)
	}
	if v := d.Version(); v != 4 {
		t.Fatalf("version = %d, want 4", v)
	}
	if st := d.Stats(); st.Ingests != 3 || st.SnapshotBuilds != 1 {
		t.Fatalf("stats = %+v, want 3 ingests and 1 snapshot build", st)
	}
	_, cancel := d.Subscribe()
	cancel()
	if _, _, ok := d.SnapshotDims(); ok {
		t.Fatal("SnapshotDims fresh two ingests after the last build")
	}
	d.buildMu.Unlock()

	g := d.Graph()
	if g.NumEdges() != 4 || g.Validate() != nil {
		t.Fatalf("snapshot after release: %d edges, validate %v", g.NumEdges(), g.Validate())
	}
	if st := d.Stats(); st.SnapshotBuilds != 2 || st.SnapshotTime <= 0 {
		t.Fatalf("stats = %+v, want 2 timed snapshot builds", st)
	}
}

func TestLiveConcurrentSnapshotReaders(t *testing.T) {
	// One writer, several readers that only take snapshots. Every graph
	// handed out must be a valid graph of some prefix of the batches, at
	// least as long as what was accepted before the call, and all readers
	// of one version must get the one graph built for it.
	const batches, readers = 80, 4
	rng := rand.New(rand.NewSource(16))
	var (
		feed     [][]temporal.Edge
		prefixes = map[int]bool{0: true}
		total    int
	)
	for i := 0; i < batches; i++ {
		batch := make([]temporal.Edge, 1+rng.Intn(12))
		for j := range batch {
			u := temporal.NodeID(rng.Intn(15 + i))
			v := (u + 1 + temporal.NodeID(rng.Intn(14+i))) % temporal.NodeID(15+i) // never a self-loop
			batch[j] = temporal.Edge{From: u, To: v, Time: temporal.Timestamp(10*i + j/4)}
		}
		feed = append(feed, batch)
		total += len(batch)
		prefixes[total] = true
	}

	d := mustNew(t, "readers", Options{Delta: 50})
	var (
		wg      sync.WaitGroup
		byEdges sync.Map // edge count (one per version) -> *temporal.Graph
		done    = make(chan struct{})
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-done:
					last = true // one more read, of the final version
				default:
				}
				accepted := int(d.Stats().Edges)
				g := d.Graph()
				if err := g.Validate(); err != nil {
					t.Errorf("snapshot of %d edges: %v", g.NumEdges(), err)
					return
				}
				if n := g.NumEdges(); !prefixes[n] || n < accepted {
					t.Errorf("snapshot has %d edges: not a batch prefix of at least %d", n, accepted)
					return
				}
				if first, _ := byEdges.LoadOrStore(g.NumEdges(), g); first != g {
					t.Errorf("two graphs handed out for the version with %d edges", g.NumEdges())
					return
				}
			}
		}()
	}
	for _, batch := range feed {
		if _, err := d.Ingest(batch); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if g := d.Graph(); g.NumEdges() != total {
		t.Fatalf("final snapshot has %d edges, %d went in", g.NumEdges(), total)
	}
	if st := d.Stats(); st.SnapshotBuilds == 0 || st.SnapshotBuilds > batches+1 {
		t.Fatalf("%d snapshot builds for %d versions", st.SnapshotBuilds, batches+1)
	}
}

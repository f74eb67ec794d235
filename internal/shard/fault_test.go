package shard

// Fault-injection tests for the scatter client: dead, hanging and
// misbehaving workers, exercised through the Coordinator so the
// failure-handling the serving path relies on is what is tested —
// retry-with-rotation rescues a query when a healthy peer remains, a
// straggler is hedged around, permanent rejections fail fast, and a fully
// failed scatter degrades loudly instead of answering partially.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// fakeSource serves one fixed graph under one name.
type fakeSource struct {
	name string
	g    *temporal.Graph
}

func (f *fakeSource) Preload(name string) (*temporal.Graph, error) {
	if name != f.name {
		return nil, &server.UnknownDatasetError{Name: name}
	}
	return f.g, nil
}

func (f *fakeSource) Datasets() []server.DatasetInfo {
	return []server.DatasetInfo{{Name: f.name, Loaded: true}}
}

// liveWorker boots a real shard worker over g.
func liveWorker(t *testing.T, g *temporal.Graph) *httptest.Server {
	t.Helper()
	w := &Worker{Graphs: &fakeSource{name: "d", g: g}, Version: "test"}
	hs := httptest.NewServer(w.Handler())
	t.Cleanup(hs.Close)
	return hs
}

func starReq() server.Request {
	return server.Request{Kind: server.KindStar4, Dataset: "d", Delta: 600, Workers: 2}
}

// TestRetryRotatesPastDeadWorker: one peer answers 500, its shard retries
// onto the healthy peer and the query still returns the exact counter.
func TestRetryRotatesPastDeadWorker(t *testing.T) {
	g := shardTestGraph(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected crash", http.StatusInternalServerError)
	}))
	defer dead.Close()
	live := liveWorker(t, g)

	m := NewMetrics()
	client, err := NewClient([]string{dead.URL, live.URL}, Policy{Timeout: 5 * time.Second, Retries: 2, Backoff: time.Millisecond}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCoordinator(client).Star4(context.Background(), g, starReq())
	if err != nil {
		t.Fatal(err)
	}
	want := higher.CountStar4(g, 600, higher.Options{Workers: 2})
	if got != want {
		t.Fatalf("degraded-fleet counter diverges from single-node count")
	}
	retries, _, failures := m.Snapshot()
	if retries == 0 {
		t.Error("no retries recorded despite a dead peer")
	}
	if failures != 0 {
		t.Errorf("failures = %d, want 0 (the retry rescued the shard)", failures)
	}
}

// TestTimeoutThenRetry: a worker that hangs past the per-attempt timeout
// is abandoned and its shard retried on the healthy peer.
func TestTimeoutThenRetry(t *testing.T) {
	g := shardTestGraph(t)
	done := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Never answers: the client abandons the attempt at its timeout.
		// (done unblocks the handler at test end so Close can return.)
		select {
		case <-done:
		case <-r.Context().Done():
		}
	}))
	defer hang.Close()
	defer close(done)
	live := liveWorker(t, g)

	m := NewMetrics()
	client, err := NewClient([]string{hang.URL, live.URL},
		Policy{Timeout: 150 * time.Millisecond, Retries: 1, Backoff: time.Millisecond}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCoordinator(client).Star4(context.Background(), g, starReq())
	if err != nil {
		t.Fatal(err)
	}
	if want := higher.CountStar4(g, 600, higher.Options{Workers: 2}); got != want {
		t.Fatal("counter diverges after timeout+retry")
	}
	if retries, _, _ := m.Snapshot(); retries == 0 {
		t.Error("no retries recorded despite a hanging peer")
	}
}

// TestHedgeBeatsStraggler: the straggling shard is duplicated onto the
// next peer after HedgeAfter and the fast copy's answer wins, well before
// the straggler's own timeout.
func TestHedgeBeatsStraggler(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	var delayed atomic.Int64
	done := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delayed.Add(1)
		select {
		case <-done: // straggles until the test ends
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(done)

	m := NewMetrics()
	client, err := NewClient([]string{slow.URL, live.URL},
		Policy{Timeout: 30 * time.Second, Retries: 0, Backoff: time.Millisecond, HedgeAfter: 50 * time.Millisecond}, m)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := NewCoordinator(client).Star4(context.Background(), g, starReq())
	if err != nil {
		t.Fatal(err)
	}
	if want := higher.CountStar4(g, 600, higher.Options{Workers: 2}); got != want {
		t.Fatal("counter diverges after hedged dispatch")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedge did not rescue the straggler (took %v)", elapsed)
	}
	if _, hedges, _ := m.Snapshot(); hedges == 0 {
		t.Error("no hedges recorded despite a straggling peer")
	}
	if delayed.Load() == 0 {
		t.Error("straggler was never consulted — hedge test exercised nothing")
	}
}

// TestAllPeersDownDegradesLoudly: when every attempt fails the scatter
// errors naming the lost shards; no partial counter is ever returned.
func TestAllPeersDownDegradesLoudly(t *testing.T) {
	g := shardTestGraph(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()

	m := NewMetrics()
	client, err := NewClient([]string{dead.URL, dead.URL},
		Policy{Timeout: time.Second, Retries: 1, Backoff: time.Millisecond}, m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(client).Star4(context.Background(), g, starReq())
	if err == nil {
		t.Fatal("fully dead fleet still answered")
	}
	for _, want := range []string{"scatter degraded", "shard"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if _, _, failures := m.Snapshot(); failures == 0 {
		t.Error("degraded scatter not counted in metrics")
	}
}

// TestPermanentRejectionsFailFast: 4xx answers (proto mismatch, shape
// mismatch, unknown dataset) abort without retries.
func TestPermanentRejectionsFailFast(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	m := NewMetrics()
	client, err := NewClient([]string{live.URL}, Policy{Timeout: time.Second, Retries: 3, Backoff: time.Millisecond}, m)
	if err != nil {
		t.Fatal(err)
	}

	base := SubRequest{
		Proto: ProtoVersion, Request: server.Request{Kind: server.KindStar4, Dataset: "d", Delta: 600, Workers: 1},
		Shard: 0, Shards: 1, Lo: 0, Hi: g.NumNodes(),
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
	}
	cases := []struct {
		name   string
		mutate func(*SubRequest)
		status int
	}{
		{"proto mismatch", func(s *SubRequest) { s.Proto = ProtoVersion + 1 }, http.StatusUpgradeRequired},
		{"shape mismatch", func(s *SubRequest) { s.Nodes++ }, http.StatusConflict},
		{"unknown dataset", func(s *SubRequest) { s.Dataset = "nope" }, http.StatusNotFound},
		{"bad range", func(s *SubRequest) { s.Lo, s.Hi = 5, 2 }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := base
			tc.mutate(&sub)
			before, _, _ := m.Snapshot()
			_, err := client.do(context.Background(), 0, sub)
			var pe *PermanentError
			if !errors.As(err, &pe) {
				t.Fatalf("want PermanentError, got %v", err)
			}
			if pe.Status != tc.status {
				t.Fatalf("status = %d, want %d (%v)", pe.Status, tc.status, err)
			}
			if after, _, _ := m.Snapshot(); after != before {
				t.Errorf("permanent rejection consumed %d retries", after-before)
			}
		})
	}
}

// TestV1SubRequestIsRefused: a version-1 coordinator ranges node pivots
// by node ID and expects a count matrix, and a version-2 one ranges a
// triangle query by pivot-edge ID, and a version-5 one expects a path4
// partial (a version-6 one a path-plan query partial) to hold the paths of
// its middle-edge range, so this worker must answer their sub-requests 426,
// naming the version it speaks, rather than answer in its own terms.
func TestV1SubRequestIsRefused(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	for _, body := range []string{
		fmt.Sprintf(`{"proto":1,"kind":"count","dataset":"d","delta":600,"shard":0,"shards":1,"lo":0,"hi":0,"nodes":%d,"edges":%d}`,
			g.NumNodes(), g.NumEdges()),
		fmt.Sprintf(`{"proto":2,"kind":"query","dataset":"d","delta":600,"shard":0,"shards":1,"lo":0,"hi":%d,"nodes":%d,"edges":%d,"spec":"a->b; b->c; c->a"}`,
			g.NumEdges(), g.NumNodes(), g.NumEdges()),
		// A version-5 path4 partial is the paths of its middle-edge range, a
		// version-6 one the range's leg pairs minus a triangle correction:
		// the two must never meet in one gather.
		fmt.Sprintf(`{"proto":5,"kind":"path4","dataset":"d","delta":600,"delta_set":true,"shard":0,"shards":2,"lo":0,"hi":%d,"nodes":%d,"edges":%d}`,
			g.NumEdges()/2, g.NumNodes(), g.NumEdges()),
		// The same split between versions 6 and 7, for a path-plan query.
		fmt.Sprintf(`{"proto":6,"kind":"query","dataset":"d","delta":600,"delta_set":true,"shard":0,"shards":2,"lo":0,"hi":%d,"nodes":%d,"edges":%d,"spec":"a->b; b->c; c->d"}`,
			g.NumEdges()/2, g.NumNodes(), g.NumEdges()),
	} {
		resp, err := http.Post(live.URL+PathCompute, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var we wireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUpgradeRequired || we.Proto != ProtoVersion || ProtoVersion < 7 {
			t.Fatalf("%s: HTTP %d, error body proto %d (%s); want 426 naming proto %d ≥ 7",
				body, resp.StatusCode, we.Proto, we.Error, ProtoVersion)
		}
	}
}

// TestWorkerRefusesUnsampledApprox: the node-pivot families are never
// sampled — the coordinator answers their approximate requests through
// exact sub-requests — so a worker refuses a star4 or a center-plan query
// sub-request with epsilon_set with a 400, never a partial. The version-4
// approx kinds (and the version-2 star4approx) are unknown kinds, also 400.
func TestWorkerRefusesUnsampledApprox(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	for _, kindSpec := range []string{
		`"kind":"star4","epsilon":0.05,"epsilon_set":true`,
		`"kind":"query","spec":"a->b; b->c; c->a","epsilon":0.05,"epsilon_set":true`,
		`"kind":"star4approx","epsilon":0.05`,
		`"kind":"path4approx","epsilon":0.05`,
		`"kind":"queryapprox","spec":"a->b; b->c; c->d","epsilon":0.05`,
	} {
		body := fmt.Sprintf(`{"proto":%d,%s,"dataset":"d","delta":600,"shard":0,"shards":1,"lo":0,"hi":1,"nodes":%d,"edges":%d}`,
			ProtoVersion, kindSpec, g.NumNodes(), g.NumEdges())
		resp, err := http.Post(live.URL+PathCompute, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var we wireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || we.Error == "" {
			t.Fatalf("%s: HTTP %d (%q, %v), want 400 with a wire error", body, resp.StatusCode, we.Error, err)
		}
	}
}

// TestWorkerComputeMatchesLibrary: a worker's partials for full ranges
// equal direct library calls — the worker-side half of the bit-identity
// argument, without the coordinator in the loop.
func TestWorkerComputeMatchesLibrary(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	client, err := NewClient([]string{live.URL}, Policy{Timeout: 10 * time.Second, Retries: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(client)
	ctx := context.Background()

	star, err := co.Star4(ctx, g, starReq())
	if err != nil {
		t.Fatal(err)
	}
	if want := higher.CountStar4(g, 600, higher.Options{Workers: 2}); star != want {
		t.Error("star4 diverges")
	}
	path, err := co.Path4(ctx, g, server.Request{Kind: server.KindPath4, Dataset: "d", Delta: 600, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := higher.CountPath4(g, 600, higher.Options{Workers: 2}); path != want {
		t.Error("path4 diverges")
	}
	ans, err := co.Count(ctx, g, server.Request{Kind: server.KindCount, Dataset: "d", Delta: 600, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eo := engine.Options{Workers: 2}
	if want := engine.Count(g, 600, eo).ToMatrix(); ans.Matrix != want {
		t.Error("count matrix diverges")
	}
	var _ motif.Matrix = ans.Matrix
}

// tamperWorker boots a real shard worker over g behind a proxy that
// rewrites every partial it answers with.
func tamperWorker(t *testing.T, g *temporal.Graph, tamper func(*Partial)) *httptest.Server {
	t.Helper()
	w := &Worker{Graphs: &fakeSource{name: "d", g: g}, Version: "test"}
	hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, r)
		var p Partial
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &p) != nil {
			http.Error(rw, rec.Body.String(), http.StatusInternalServerError)
			return
		}
		tamper(&p)
		json.NewEncoder(rw).Encode(&p)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// TestSigSampleCountMismatchIsLoud: a worker that answers a sample range
// with one matrix too few or one too many is rejected as a permanent
// failure, so the scatter degrades loudly instead of folding a wrong
// number of null draws into the report.
func TestSigSampleCountMismatchIsLoud(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	req := server.Request{Kind: server.KindSig, Dataset: "d", Delta: 600, Workers: 1,
		Model: nullmodel.TimeShuffle.String(), Samples: 8, Seed: 3}
	for name, tamper := range map[string]func(*Partial){
		"truncating":  func(p *Partial) { p.Sig = p.Sig[:len(p.Sig)-1] },
		"duplicating": func(p *Partial) { p.Sig = append(p.Sig, p.Sig[0]) },
	} {
		t.Run(name, func(t *testing.T) {
			m := NewMetrics()
			client, err := NewClient([]string{live.URL, tamperWorker(t, g, tamper).URL},
				Policy{Timeout: 10 * time.Second, Retries: 2, Backoff: time.Millisecond}, m)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := NewCoordinator(client).Significance(context.Background(), g, req)
			if err == nil {
				t.Fatalf("scatter answered with %d trials of %d", rep.Trials, req.Samples)
			}
			if !strings.Contains(err.Error(), "null samples") {
				t.Errorf("error %q does not name the sample count", err)
			}
			if retries, _, failures := m.Snapshot(); retries != 0 || failures == 0 {
				t.Errorf("retries %d, failures %d: want a permanent failure, counted", retries, failures)
			}
		})
	}
}

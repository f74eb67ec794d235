package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hare/internal/live"
	"hare/internal/temporal"
)

// --- Satellite regressions: request canonicalization -----------------------

func TestParseRequestExplicitDeltaZero(t *testing.T) {
	// Absent delta defaults to 600 — pinned by TestParseRequestDefaultsAndErrors.
	// An *explicit* delta=0 is a legal request (the library accepts δ=0:
	// only simultaneous edges form motifs) and must survive parsing instead
	// of being silently rewritten to the default.
	req, _, err := ParseRequest(KindCount, url.Values{"dataset": {"x"}, "delta": {"0"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Delta != 0 || !req.DeltaSet {
		t.Fatalf("explicit delta=0 parsed to Delta=%d DeltaSet=%v, want 0/true", req.Delta, req.DeltaSet)
	}
	// The two spellings answer differently, so they must key apart.
	def, _, err := ParseRequest(KindCount, url.Values{"dataset": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Key() == def.Key() {
		t.Fatalf("delta=0 and defaulted delta share cache key %q", req.Key())
	}
	// The validation text matches the contract: >= 0, not > 0.
	_, _, err = ParseRequest(KindCount, url.Values{"dataset": {"x"}, "delta": {"-1"}})
	if err == nil || !strings.Contains(err.Error(), "delta must be >= 0") {
		t.Fatalf("delta=-1 error = %v, want the >= 0 contract", err)
	}
}

func TestNormalizeCanonicalizesThrdZero(t *testing.T) {
	// Explicit thrd=0 means "auto" — exactly like leaving it unset — so
	// normalize clears ThrdSet and every consumer (library backend, shard
	// scatter, response echo) sees one spelling.
	req, _, err := ParseRequest(KindCount, url.Values{"dataset": {"x"}, "thrd": {"0"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.ThrdSet {
		t.Fatalf("explicit thrd=0 left ThrdSet=true (Thrd=%d)", req.Thrd)
	}
	req, _, err = ParseRequest(KindCount, url.Values{"dataset": {"x"}, "thrd": {"25"}})
	if err != nil {
		t.Fatal(err)
	}
	if !req.ThrdSet || req.Thrd != 25 {
		t.Fatalf("thrd=25 parsed to Thrd=%d ThrdSet=%v", req.Thrd, req.ThrdSet)
	}
}

func TestCategoryKeyPanicsOnInvalidMotif(t *testing.T) {
	// normalize guarantees Motif validity before any Key() call; a silent
	// fallback here would file a category-restricted matrix under the
	// unrestricted "all" key. The invariant is enforced with a panic.
	defer func() {
		if recover() == nil {
			t.Fatal("categoryKey on an invalid motif did not panic")
		}
	}()
	categoryKey("M99")
}

// --- Registry: live entries ------------------------------------------------

func TestRegistryVolatileNeverEvicted(t *testing.T) {
	r := NewRegistry(1) // one resident immutable graph max
	d, err := live.New("live", live.Options{Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterLive(d, ""); err != nil {
		t.Fatal(err)
	}
	r.Register("a", "", func() (*temporal.Graph, error) { return tinyGraph(), nil })
	r.Register("b", "", func() (*temporal.Graph, error) { return tinyGraph(), nil })

	// Interleave: the live dataset resolves between immutable loads that
	// evict each other. Its entry never joins the LRU, so churn among the
	// immutables can never evict it, and every Get returns its snapshot.
	getLive := func() {
		t.Helper()
		if g, err := r.Get("live"); err != nil || g != d.Graph() {
			t.Fatalf("Get(live) = %p, %v; want the dataset's snapshot", g, err)
		}
	}
	for i := 0; i < 3; i++ {
		getLive()
		if _, err := r.Get("a"); err != nil {
			t.Fatal(err)
		}
		getLive()
		if _, err := r.Get("b"); err != nil {
			t.Fatal(err)
		}
	}
	_, evictions, resident := r.Stats()
	if resident != 1 {
		t.Fatalf("resident = %d, want 1 (live never counts)", resident)
	}
	if evictions != 5 {
		t.Fatalf("evictions = %d, want 5 (a/b churn only)", evictions)
	}
	// List marks the entry live.
	for _, info := range r.List() {
		if info.Name == "live" && !info.Live {
			t.Fatal("List did not mark the live entry live")
		}
		if info.Name != "live" && info.Live {
			t.Fatalf("immutable %q marked live", info.Name)
		}
	}
}

func TestRegistryListAcrossEviction(t *testing.T) {
	r := NewRegistry(1)
	for _, name := range []string{"a", "b"} {
		if err := r.RegisterSourced(name, "", func() (*temporal.Graph, string, error) {
			return tinyGraph(), "text " + name + ".txt", nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := live.New("live", live.Options{Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterLive(d, ""); err != nil {
		t.Fatal(err)
	}
	list := func() map[string]DatasetInfo {
		t.Helper()
		infos := r.List()
		if len(infos) != 3 {
			t.Fatalf("List has %d entries, want 3", len(infos))
		}
		byName := make(map[string]DatasetInfo, len(infos))
		for _, info := range infos {
			byName[info.Name] = info
		}
		return byName
	}

	for _, name := range []string{"a", "b"} { // loading b evicts a
		if _, err := r.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	g := tinyGraph()
	infos := list()
	a, b := infos["a"], infos["b"]
	if a.Loaded || a.Source != "text a.txt" || a.Nodes != 0 || a.Edges != 0 {
		t.Fatalf("evicted a = %+v, want its source kept, not loaded, no dimensions", a)
	}
	if body, _ := json.Marshal(a); strings.Contains(string(body), "nodes") || strings.Contains(string(body), "edges") {
		t.Fatalf("evicted a renders %s, want nodes and edges omitted", body)
	}
	if !b.Loaded || b.Source != "text b.txt" || b.Nodes != g.NumNodes() || b.Edges != g.NumEdges() {
		t.Fatalf("resident b = %+v, want loaded with its source and dimensions", b)
	}

	// A live entry reports its version always, its dimensions only once a
	// snapshot for that version exists.
	check := func(version uint64, loaded bool, nodes, edges int) {
		t.Helper()
		l := list()["live"]
		if !l.Live || l.Source != "live" || l.Version != version || l.Loaded != loaded || l.Nodes != nodes || l.Edges != edges {
			t.Fatalf("live = %+v, want version %d, loaded %v, %d nodes, %d edges", l, version, loaded, nodes, edges)
		}
	}
	check(1, false, 0, 0)
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	check(2, false, 0, 0)
	if _, err := r.Get("live"); err != nil {
		t.Fatal(err)
	}
	check(2, true, 3, 2)
	if _, err := d.Ingest([]temporal.Edge{{From: 2, To: 0, Time: 3}}); err != nil {
		t.Fatal(err)
	}
	check(3, false, 0, 0)
}

// --- Ingest/watch handlers ---------------------------------------------------

func newLiveTestServer(t *testing.T, delta temporal.Timestamp) (*Server, *live.Dataset) {
	t.Helper()
	s, _ := newTestServer(t, Options{})
	d, err := live.New("feed", live.Options{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLive(d, "test live dataset"); err != nil {
		t.Fatal(err)
	}
	return s, d
}

func post(t *testing.T, s *Server, path, body string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	var out map[string]any
	if rec.Header().Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code, out
}

func TestIngestHandler(t *testing.T) {
	s, d := newLiveTestServer(t, 600)

	code, body := post(t, s, "/v1/ingest?dataset=feed", "0 1 10\n1 2 20\n")
	if code != http.StatusOK {
		t.Fatalf("ingest status = %d, body %v", code, body)
	}
	if body["accepted"] != 2.0 || body["version"] != 2.0 || body["watermark"] != 20.0 {
		t.Fatalf("ingest response = %v", body)
	}
	if d.Version() != 2 {
		t.Fatalf("dataset version = %d, want 2", d.Version())
	}

	// Line-numbered atomic rejection surfaces as a 400 with the offending
	// line; nothing is ingested.
	code, body = post(t, s, "/v1/ingest?dataset=feed", "2 3 30\n3 4 5\n")
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-order ingest status = %d", code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "line 2: out-of-order edge at t=5 (last 30)") {
		t.Fatalf("error = %q, want line-numbered rejection", body["error"])
	}
	if d.Version() != 2 || d.Edges() != 2 {
		t.Fatalf("rejected batch mutated dataset: version %d, edges %d", d.Version(), d.Edges())
	}

	// Status-code taxonomy: unknown dataset 404, immutable dataset 400,
	// missing dataset 400, wrong method 405.
	if code, _ := post(t, s, "/v1/ingest?dataset=nope", "0 1 1\n"); code != http.StatusNotFound {
		t.Fatalf("unknown dataset status = %d, want 404", code)
	}
	if code, body := post(t, s, "/v1/ingest?dataset=tiny", "0 1 1\n"); code != http.StatusBadRequest ||
		!strings.Contains(body["error"].(string), "not live") {
		t.Fatalf("immutable dataset status = %d body %v, want 400 'not live'", code, body)
	}
	if code, _ := post(t, s, "/v1/ingest", "0 1 1\n"); code != http.StatusBadRequest {
		t.Fatalf("missing dataset status = %d, want 400", code)
	}
	if code, _ := get(t, s, "/v1/ingest?dataset=feed"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest status = %d, want 405", code)
	}

	// /metrics exports the per-dataset ingest series, and what reads paid
	// for snapshots: two reads of one version build one.
	for _, path := range []string{"/v1/count?dataset=feed&delta=100", "/v1/count?dataset=feed&delta=200"} {
		if code, body := get(t, s, path); code != http.StatusOK {
			t.Fatalf("count on live dataset: status %d, body %v", code, body)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`hared_ingest_batches_total{dataset="feed"} 1`,
		`hared_ingest_edges_total{dataset="feed"} 2`,
		`hared_ingest_rejected_total{dataset="feed"} 1`,
		`hared_live_version{dataset="feed"} 2`,
		`hared_live_snapshot_builds_total{dataset="feed"} 1`,
		`hared_live_snapshot_seconds_total{dataset="feed"} `,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestVersionKeyedCacheKey(t *testing.T) {
	s, d := newLiveTestServer(t, 600)
	req, _, err := ParseRequest(KindCount, url.Values{"dataset": {"feed"}})
	if err != nil {
		t.Fatal(err)
	}
	k1 := s.cacheKey(req)
	if !strings.HasSuffix(k1, "|v1") {
		t.Fatalf("live cache key %q lacks version suffix", k1)
	}
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: 5}}); err != nil {
		t.Fatal(err)
	}
	if k2 := s.cacheKey(req); k2 == k1 || !strings.HasSuffix(k2, "|v2") {
		t.Fatalf("post-ingest cache key = %q (was %q), want |v2 suffix", k2, k1)
	}
	// Immutable datasets keep their bare canonical key.
	imm, _, err := ParseRequest(KindCount, url.Values{"dataset": {"tiny"}})
	if err != nil {
		t.Fatal(err)
	}
	if k := s.cacheKey(imm); k != imm.Key() {
		t.Fatalf("immutable cache key %q != canonical %q", k, imm.Key())
	}
}

func TestDatasetsReportLiveVersion(t *testing.T) {
	s, d := newLiveTestServer(t, 600)
	if _, err := d.Ingest([]temporal.Edge{{From: 0, To: 1, Time: 5}, {From: 1, To: 2, Time: 9}}); err != nil {
		t.Fatal(err)
	}
	d.Graph() // materialize the snapshot so dims are reportable
	var found bool
	for _, info := range s.Datasets() {
		if info.Name != "feed" {
			continue
		}
		found = true
		if !info.Live || info.Version != 2 || !info.Loaded || info.Edges != 2 {
			t.Fatalf("live dataset info = %+v", info)
		}
	}
	if !found {
		t.Fatal("live dataset missing from Datasets()")
	}
}

func TestWatchHandlerValidation(t *testing.T) {
	s, _ := newLiveTestServer(t, 600)
	cases := []struct {
		path string
		code int
	}{
		{"/v1/watch", http.StatusBadRequest},
		{"/v1/watch?dataset=nope", http.StatusNotFound},
		{"/v1/watch?dataset=tiny", http.StatusBadRequest},
		{"/v1/watch?dataset=feed&motif=M99", http.StatusBadRequest},
		{"/v1/watch?dataset=feed&z=abc", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _ := get(t, s, tc.path); code != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.code)
		}
	}
	if code, _ := post(t, s, "/v1/watch?dataset=feed", ""); code != http.StatusMethodNotAllowed {
		t.Error("POST watch: want 405")
	}
}

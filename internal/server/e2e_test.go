package server_test

// End-to-end test of the hared serving stack: a real HTTP server on an
// ephemeral port, concurrent mixed queries, and responses checked
// bit-identical against direct library calls — plus cache accounting that
// must add up exactly (each unique canonical request computes once; every
// other request is a cache hit or an in-flight coalesce).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hare"
	"hare/internal/gen"
	"hare/internal/motif"
)

// e2eResponse mirrors the server's query envelope with integer-exact
// count decoding.
type e2eResponse struct {
	Dataset      string            `json:"dataset"`
	DeltaSeconds int64             `json:"delta_seconds"`
	Edges        int               `json:"edges"`
	Matrix       map[string]uint64 `json:"matrix"`
	Motif        string            `json:"motif"`
	Count        *uint64           `json:"count"`
	Patterns     map[string]uint64 `json:"patterns"`
	Paths        map[string]uint64 `json:"paths"`
	Pivot        string            `json:"pivot"`
	Motifs       []struct {
		Label  string  `json:"label"`
		Real   uint64  `json:"real"`
		Mean   float64 `json:"mean"`
		Std    float64 `json:"std"`
		PUpper float64 `json:"p_upper"`
		PLower float64 `json:"p_lower"`
	} `json:"motifs"`
	Total     uint64 `json:"total"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
}

func e2eGraph(t testing.TB) *hare.Graph {
	t.Helper()
	cfg, err := gen.DatasetByName("collegemsg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Scaled(cfg, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEndToEndApprox drives epsilon= through the real serving stack: the
// served estimate and interval equal a direct library call bit for bit,
// the interval covers the exact count, and the exact responses stay
// byte-for-byte free of approx fields.
func TestEndToEndApprox(t *testing.T) {
	g := e2eGraph(t)
	srv, err := hare.NewServer(hare.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("college", "e2e graph", g); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	type approxBody struct {
		Approx     bool     `json:"approx"`
		Epsilon    float64  `json:"epsilon"`
		Confidence float64  `json:"confidence"`
		Estimate   *float64 `json:"estimate"`
		CILow      *float64 `json:"ci_low"`
		CIHigh     *float64 `json:"ci_high"`
		Intervals  map[string]struct {
			Estimate float64 `json:"estimate"`
			Low      float64 `json:"low"`
			High     float64 `json:"high"`
		} `json:"intervals"`
		Total       uint64 `json:"total"`
		Cached      bool   `json:"cached"`
		ApproxExact bool   `json:"approx_exact"`
	}
	fetch := func(path string) (approxBody, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, data)
		}
		var body approxBody
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body, data
	}

	exact, err := hare.CountStar4(g, 600)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := hare.CountStar4Approx(g, 600, hare.ApproxOptions{Epsilon: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := fetch("/v1/star4?dataset=college&delta=600&epsilon=0.05&seed=3")
	if !body.Approx || body.Estimate == nil || body.CILow == nil || body.CIHigh == nil {
		t.Fatalf("approx response incomplete: %+v", body)
	}
	if *body.Estimate != direct.Total.Estimate || *body.CILow != direct.Total.Low || *body.CIHigh != direct.Total.High {
		t.Errorf("served interval (%v [%v, %v]) != direct library call (%v [%v, %v])",
			*body.Estimate, *body.CILow, *body.CIHigh,
			direct.Total.Estimate, direct.Total.Low, direct.Total.High)
	}
	if got, want := float64(exact.Total()), 0.0; *body.CILow > got+want || *body.CIHigh < got {
		t.Errorf("interval [%v, %v] misses exact count %v", *body.CILow, *body.CIHigh, exact.Total())
	}
	// star4 is a node-pivot family: its approx answer is the exact count.
	if !body.ApproxExact || *body.CILow != *body.CIHigh || body.Total != exact.Total() {
		t.Errorf("star4 approx answer %+v is not the exact count %d", body, exact.Total())
	}
	if len(body.Intervals) != 8 {
		t.Fatalf("star4 intervals = %d cells, want 8", len(body.Intervals))
	}
	for i, iv := range direct.Cells {
		d1, d2, d3 := motif.PairDirs(i)
		key := fmt.Sprintf("%s,%s,%s", d1, d2, d3)
		got, ok := body.Intervals[key]
		if !ok || got.Estimate != iv.Estimate || got.Low != iv.Low || got.High != iv.High {
			t.Errorf("cell %s: served %+v, direct %+v", key, got, iv)
		}
	}

	// The exact response is byte-stable and approx-free regardless of
	// approx traffic against the same dataset.
	_, before := fetch("/v1/star4?dataset=college&delta=600")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(before, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"approx", "epsilon", "confidence", "estimate", "ci_low", "ci_high", "intervals"} {
		if _, ok := raw[k]; ok {
			t.Errorf("exact response carries approx field %q", k)
		}
	}

	// Approx query kind over the pivot-edge family round-trips too.
	spec := "a->b; b->c; c->d"
	parsed, err := hare.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	qDirect, err := hare.CountMotifApprox(g, parsed, 600, hare.ApproxOptions{Epsilon: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	qBody, _ := fetch("/v1/query?dataset=college&delta=600&spec=a-%3Eb,b-%3Ec,c-%3Ed&epsilon=0.05&seed=11")
	if qBody.Estimate == nil || *qBody.Estimate != qDirect.Total.Estimate ||
		*qBody.CILow != qDirect.Total.Low || *qBody.CIHigh != qDirect.Total.High {
		t.Errorf("served query interval %+v != direct %+v", qBody, qDirect.Total)
	}
	if qBody.ApproxExact {
		t.Errorf("a sampled path-spec answer is flagged exact: %+v", qBody)
	}
}

func TestEndToEndConcurrentMixedQueries(t *testing.T) {
	g := e2eGraph(t)
	srv, err := hare.NewServer(hare.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("college", "e2e graph", g); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler()) // ephemeral port
	defer hs.Close()

	// The mixed workload: per unique canonical request, several identical
	// concurrent calls that must all coalesce onto one computation.
	queries := []struct {
		path string
		n    int
	}{
		{"/v1/count?dataset=college&delta=600", 8},
		{"/v1/count?dataset=college&delta=300", 4},
		{"/v1/count?dataset=college&delta=600&motif=M26", 4},
		{"/v1/star4?dataset=college&delta=600", 4},
		{"/v1/path4?dataset=college&delta=600", 4},
		{"/v1/sig?dataset=college&delta=600&samples=4&seed=2", 3},
	}
	uniqueKeys := len(queries)
	total := 0
	type reply struct {
		path string
		body e2eResponse
	}
	var mu sync.Mutex
	var replies []reply
	var wg sync.WaitGroup
	for _, q := range queries {
		total += q.n
		for i := 0; i < q.n; i++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				resp, err := http.Get(hs.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d: %s", path, resp.StatusCode, data)
					return
				}
				var body e2eResponse
				if err := json.Unmarshal(data, &body); err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				mu.Lock()
				replies = append(replies, reply{path, body})
				mu.Unlock()
			}(q.path)
		}
	}
	wg.Wait()
	if len(replies) != total {
		t.Fatalf("got %d replies, want %d", len(replies), total)
	}

	// Direct library answers — what every served response must equal.
	count600, err := hare.Count(g, 600)
	if err != nil {
		t.Fatal(err)
	}
	count300, err := hare.Count(g, 300)
	if err != nil {
		t.Fatal(err)
	}
	star600, err := hare.CountStar4(g, 600)
	if err != nil {
		t.Fatal(err)
	}
	path600, err := hare.CountPath4(g, 600)
	if err != nil {
		t.Fatal(err)
	}
	sig600, err := hare.Significance(g, 600, hare.SignificanceOptions{Trials: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	wantMatrix := func(m hare.Matrix) map[string]uint64 {
		out := make(map[string]uint64, 36)
		for _, l := range hare.AllLabels() {
			out[l.String()] = m.At(l)
		}
		return out
	}
	wantPatterns := make(map[string]uint64, 8)
	for i, v := range star600 {
		d1, d2, d3 := motif.PairDirs(i)
		wantPatterns[fmt.Sprintf("%s,%s,%s", d1, d2, d3)] = v
	}
	wantPaths := make(map[string]uint64)
	for _, lc := range path600.Labels() {
		wantPaths[lc.Label.String()] = lc.Count
	}

	equalMaps := func(got, want map[string]uint64) bool {
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}

	for _, r := range replies {
		switch {
		case strings.Contains(r.path, "motif=M26"):
			if got := r.body.Count; got == nil || *got != count600.Matrix.At(hare.MustLabel("M26")) {
				t.Errorf("%s: count = %v, want %d", r.path, got, count600.Matrix.At(hare.MustLabel("M26")))
			}
			// Restricted mode zeroes the other categories but must keep
			// every triangle cell exact.
			for _, l := range hare.AllLabels() {
				if l.Category() == hare.CategoryTri && r.body.Matrix[l.String()] != count600.Matrix.At(l) {
					t.Errorf("%s: %s = %d, want %d", r.path, l, r.body.Matrix[l.String()], count600.Matrix.At(l))
				}
			}
		case strings.Contains(r.path, "/v1/count?dataset=college&delta=600"):
			if !equalMaps(r.body.Matrix, wantMatrix(count600.Matrix)) {
				t.Errorf("%s: matrix diverges from direct hare.Count", r.path)
			}
			if r.body.Total != count600.Matrix.Total() {
				t.Errorf("%s: total = %d, want %d", r.path, r.body.Total, count600.Matrix.Total())
			}
		case strings.Contains(r.path, "delta=300"):
			if !equalMaps(r.body.Matrix, wantMatrix(count300.Matrix)) {
				t.Errorf("%s: matrix diverges from direct hare.Count", r.path)
			}
		case strings.Contains(r.path, "star4"):
			if !equalMaps(r.body.Patterns, wantPatterns) {
				t.Errorf("%s: patterns = %v, want %v", r.path, r.body.Patterns, wantPatterns)
			}
			if r.body.Total != star600.Total() {
				t.Errorf("%s: total = %d, want %d", r.path, r.body.Total, star600.Total())
			}
		case strings.Contains(r.path, "path4"):
			if !equalMaps(r.body.Paths, wantPaths) {
				t.Errorf("%s: paths = %v, want %v", r.path, r.body.Paths, wantPaths)
			}
		case strings.Contains(r.path, "sig"):
			if len(r.body.Motifs) != 36 {
				t.Fatalf("%s: %d motifs", r.path, len(r.body.Motifs))
			}
			for _, m := range r.body.Motifs {
				l := hare.MustLabel(m.Label)
				if m.Real != sig600.Real.At(l) || m.Mean != sig600.MeanAt(l) ||
					m.Std != sig600.StdAt(l) || m.PUpper != sig600.PUpperAt(l) ||
					m.PLower != sig600.PLowerAt(l) {
					t.Errorf("%s: %s stats diverge from direct hare.Significance", r.path, m.Label)
				}
			}
		default:
			t.Errorf("unmatched reply path %s", r.path)
		}
	}

	// Cache accounting: each unique canonical request computed exactly
	// once; every other request was served by the LRU (hit) or joined an
	// in-flight computation (coalesced).
	hits, misses, evictions, coalesced := srv.CacheStats()
	if misses != uint64(uniqueKeys) {
		t.Errorf("misses = %d, want %d (one compute per unique request)", misses, uniqueKeys)
	}
	if hits+coalesced != uint64(total-uniqueKeys) {
		t.Errorf("hits+coalesced = %d+%d, want %d", hits, coalesced, total-uniqueKeys)
	}
	if evictions != 0 {
		t.Errorf("evictions = %d, want 0", evictions)
	}

	// The responses themselves must agree with the counters.
	var cachedSeen, coalescedSeen, freshSeen uint64
	for _, r := range replies {
		switch {
		case r.body.Cached:
			cachedSeen++
		case r.body.Coalesced:
			coalescedSeen++
		default:
			freshSeen++
		}
	}
	if freshSeen != misses || cachedSeen != hits || coalescedSeen != coalesced {
		t.Errorf("response flags fresh/cached/coalesced = %d/%d/%d, counters = %d/%d/%d",
			freshSeen, cachedSeen, coalescedSeen, misses, hits, coalesced)
	}

	// /metrics aggregates the same story.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		fmt.Sprintf("hared_cache_misses_total %d", misses),
		fmt.Sprintf("hared_cache_hits_total %d", hits),
		fmt.Sprintf("hared_dedup_coalesced_total %d", coalesced),
		"hared_dataset_loads_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A 3-node star spec is one of the paper's 36 motifs, so /v1/query must
// answer it as a center plan and with exactly the count /v1/count reports
// for its label: two kinds, one number.
func TestEndToEndStarSpecEqualsItsMotifCount(t *testing.T) {
	g := e2eGraph(t)
	srv, err := hare.NewServer(hare.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("college", "e2e graph", g); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fetch := func(path string) e2eResponse {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body e2eResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, decode error %v", path, resp.StatusCode, err)
		}
		return body
	}
	// a->b, a->c, b->a read as an instance on nodes 0, 1, 2.
	label, ok := motif.Classify(hare.Edge{From: 0, To: 1, Time: 0}, hare.Edge{From: 0, To: 2, Time: 1}, hare.Edge{From: 1, To: 0, Time: 2})
	if !ok || label.Category() != motif.CategoryStar {
		t.Fatalf("spec classified as %v (ok=%v), want a star motif", label, ok)
	}
	q := fetch("/v1/query?dataset=college&delta=600&spec=a-%3Eb,a-%3Ec,b-%3Ea")
	if q.Pivot != "center" {
		t.Errorf("pivot = %q, want center", q.Pivot)
	}
	c := fetch("/v1/count?dataset=college&delta=600&motif=" + label.String())
	if c.Count == nil {
		t.Fatalf("/v1/count motif=%s carries no count", label)
	}
	if *c.Count == 0 || q.Total != *c.Count {
		t.Fatalf("query total %d, /v1/count %s count %d (want equal and non-zero)", q.Total, label, *c.Count)
	}
}

// The server hands any delta ≥ 0 to the kernels unchanged, MaxInt64
// included: the answer must be the everything-in-one-window count, not what
// a wrapped-around t ± δ window happens to hold (path4 answered 0 here).
func TestEndToEndHugeDelta(t *testing.T) {
	g := hare.FromEdges([]hare.Edge{
		{From: 0, To: 1, Time: 10}, {From: 1, To: 2, Time: 20}, {From: 2, To: 3, Time: 30},
		{From: 3, To: 0, Time: 40}, {From: 2, To: 0, Time: 50},
	})
	srv, err := hare.NewServer(hare.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("five", "five edges", g); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/path4?dataset=five&delta=9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body e2eResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
	}
	want, err := hare.CountPath4(g, 40) // the graph's whole span
	if err != nil {
		t.Fatal(err)
	}
	var served uint64
	for _, lc := range want.Labels() {
		served += body.Paths[lc.Label.String()]
		if body.Paths[lc.Label.String()] != lc.Count {
			t.Errorf("%s = %d, want %d", lc.Label, body.Paths[lc.Label.String()], lc.Count)
		}
	}
	if served != 6 || body.Total != 6 || body.DeltaSeconds != 9223372036854775807 {
		t.Fatalf("served %d paths (total %d) at δ=%d, want 6 at MaxInt64", served, body.Total, body.DeltaSeconds)
	}
}

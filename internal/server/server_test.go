package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hare/internal/approx"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/temporal"
)

// fakeBackend returns deterministic counts derived from δ and tracks how
// many jobs run, and how many concurrently. block, when set, gates every
// job so tests can hold jobs in flight.
type fakeBackend struct {
	calls      atomic.Int64
	inflight   atomic.Int64
	maxSeen    atomic.Int64
	block      chan struct{} // nil = don't block
	workerSeen atomic.Int64
}

func (f *fakeBackend) enter() {
	f.calls.Add(1)
	cur := f.inflight.Add(1)
	for {
		old := f.maxSeen.Load()
		if cur <= old || f.maxSeen.CompareAndSwap(old, cur) {
			break
		}
	}
	if f.block != nil {
		<-f.block
	}
}

func (f *fakeBackend) exit() { f.inflight.Add(-1) }

func (f *fakeBackend) Count(_ context.Context, g *temporal.Graph, req Request) (CountAnswer, error) {
	f.enter()
	defer f.exit()
	f.workerSeen.Store(int64(req.Workers))
	var m motif.Matrix
	m.Set(motif.Label{Row: 2, Col: 6}, uint64(req.Delta))
	return CountAnswer{Matrix: m, Workers: req.Workers, DegreeThreshold: 7}, nil
}

func (f *fakeBackend) Star4(_ context.Context, g *temporal.Graph, req Request) (higher.Star4Counter, error) {
	f.enter()
	defer f.exit()
	var c higher.Star4Counter
	c[0] = uint64(req.Delta) * 2
	return c, nil
}

func (f *fakeBackend) Path4(_ context.Context, g *temporal.Graph, req Request) (higher.PathCounter, error) {
	f.enter()
	defer f.exit()
	var c higher.PathCounter
	c[7] = uint64(req.Delta) * 3
	return c, nil
}

func (f *fakeBackend) Query(_ context.Context, g *temporal.Graph, req Request) (uint64, error) {
	f.enter()
	defer f.exit()
	return uint64(req.Delta) * 5, nil
}

// approxFake builds a recognizable fake estimate: total = δ·scale with a
// ±1 interval, one cell, 5 draws over 2 strata (1 exact).
func approxFake(req Request, scale uint64) *approx.Result {
	est := float64(req.Delta * int64(scale))
	return &approx.Result{
		Cells:       []approx.Interval{{Estimate: est, Low: est - 1, High: est + 1}},
		Total:       approx.Interval{Estimate: est, Low: est - 1, High: est + 1},
		Draws:       5,
		Strata:      2,
		ExactStrata: 1,
		Epsilon:     req.Epsilon,
		Confidence:  req.Conf,
	}
}

func (f *fakeBackend) Star4Approx(_ context.Context, g *temporal.Graph, req Request) (*approx.Result, error) {
	f.enter()
	defer f.exit()
	return approxFake(req, 2), nil
}

func (f *fakeBackend) Path4Approx(_ context.Context, g *temporal.Graph, req Request) (*approx.Result, error) {
	f.enter()
	defer f.exit()
	return approxFake(req, 3), nil
}

func (f *fakeBackend) QueryApprox(_ context.Context, g *temporal.Graph, req Request) (*approx.Result, error) {
	f.enter()
	defer f.exit()
	return approxFake(req, 5), nil
}

func (f *fakeBackend) Significance(_ context.Context, g *temporal.Graph, req Request) (*nullmodel.Report, error) {
	f.enter()
	defer f.exit()
	rep := &nullmodel.Report{Trials: req.Samples, Workers: req.Workers}
	rep.Real.Set(motif.Label{Row: 1, Col: 1}, uint64(req.Seed))
	return rep, nil
}

func tinyGraph() *temporal.Graph {
	return temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 0, Time: 3},
	})
}

func newTestServer(t *testing.T, opts Options) (*Server, *fakeBackend) {
	t.Helper()
	fb := &fakeBackend{}
	if opts.Backend == nil {
		opts.Backend = fb
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph("tiny", "test graph", tinyGraph()); err != nil {
		t.Fatal(err)
	}
	return s, fb
}

func get(t *testing.T, s *Server, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		if rec.Header().Get("Content-Type") == "application/json" {
			t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
		}
		body = nil
	}
	return rec.Code, body
}

func TestParseRequestDefaultsAndErrors(t *testing.T) {
	req, _, err := ParseRequest(KindCount, url.Values{"dataset": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Delta != 600 {
		t.Fatalf("default delta = %d, want 600", req.Delta)
	}
	req, _, err = ParseRequest(KindSig, url.Values{"dataset": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if req.Model != "time-shuffle" || req.Samples != 20 {
		t.Fatalf("sig defaults = %q/%d", req.Model, req.Samples)
	}
	for _, bad := range []url.Values{
		{}, // missing dataset
		{"dataset": {"x"}, "delta": {"-1"}},
		{"dataset": {"x"}, "delta": {"abc"}},
		{"dataset": {"x"}, "workers": {"-2"}},
		{"dataset": {"x"}, "motif": {"M99"}},
		{"dataset": {"x"}, "thrd": {"zzz"}},
	} {
		if _, _, err := ParseRequest(KindCount, bad); err == nil {
			t.Errorf("ParseRequest(%v): want error", bad)
		}
	}
	if _, _, err := ParseRequest(KindSig, url.Values{"dataset": {"x"}, "model": {"nope"}}); err == nil {
		t.Error("bad model: want error")
	}
	if _, _, err := ParseRequest(KindSig, url.Values{"dataset": {"x"}, "samples": {"-1"}}); err == nil {
		t.Error("negative samples: want error")
	}
	if _, _, err := ParseRequest(KindStar4, url.Values{"dataset": {"x"}, "motif": {"M26"}}); err == nil {
		t.Error("motif on star4: want error")
	}
}

func TestRequestKeyCanonicalization(t *testing.T) {
	base := Request{Kind: KindCount, Dataset: "d", Delta: 600}
	withWorkers := base
	withWorkers.Workers = 8
	withThrd := base
	withThrd.Thrd, withThrd.ThrdSet = 100, true
	if base.Key() != withWorkers.Key() || base.Key() != withThrd.Key() {
		t.Errorf("scheduling knobs leaked into key: %q vs %q vs %q",
			base.Key(), withWorkers.Key(), withThrd.Key())
	}
	// Pair and star categories share one cached matrix.
	pair := base
	pair.Motif = "M11" // a pair motif cell
	star := base
	star.Motif = "M14" // a star motif cell
	tri := base
	tri.Motif = "M26" // a triangle motif cell
	if pair.Key() != star.Key() {
		t.Errorf("pair/star keys differ: %q vs %q", pair.Key(), star.Key())
	}
	if pair.Key() == tri.Key() || base.Key() == tri.Key() {
		t.Errorf("tri key not distinct: %q vs %q vs %q", base.Key(), pair.Key(), tri.Key())
	}
	sig := Request{Kind: KindSig, Dataset: "d", Delta: 600, Model: "time-shuffle", Samples: 20}
	sig2 := sig
	sig2.Seed = 1
	if sig.Key() == sig2.Key() {
		t.Error("sig seed must be part of the key")
	}
}

func TestQueryRequestCanonicalKey(t *testing.T) {
	parse := func(spec string) Request {
		t.Helper()
		req, _, err := ParseRequest(KindQuery, url.Values{"dataset": {"d"}, "spec": {spec}})
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	// Three spellings of one triangle — separators, arrow sugar, variable
	// names, rotation — normalize to one canonical spec and one cache key.
	tri := parse("x->y; y->z; z->x")
	if tri.Spec != "a->b; b->c; c->a" {
		t.Fatalf("canonical spec = %q", tri.Spec)
	}
	rot := parse("c<-b, a<-c, b<-a")
	if tri.Key() != rot.Key() {
		t.Errorf("isomorphic spellings keyed apart: %q vs %q", tri.Key(), rot.Key())
	}
	// The JSON form normalizes into the same key space.
	star := parse(`{"edges":[{"src":"hub","dst":"u"},{"src":"hub","dst":"v"},{"src":"hub","dst":"w"}]}`)
	if star.Spec != "a->b; a->c; a->d" {
		t.Fatalf("canonical JSON spec = %q", star.Spec)
	}
	if star.Key() == tri.Key() {
		t.Error("distinct shapes share a key")
	}
	for _, bad := range []url.Values{
		{"dataset": {"d"}}, // query without spec
		{"dataset": {"d"}, "spec": {"a->a; a->b; b->a"}}, // self-loop
		{"dataset": {"d"}, "spec": {"a->b; b->c"}},       // too few edges
		{"dataset": {"d"}, "spec": {"a->b; c->d; e->f"}}, // too many nodes
		{"dataset": {"d"}, "spec": {"nonsense"}},         // syntax
	} {
		if _, _, err := ParseRequest(KindQuery, bad); err == nil {
			t.Errorf("ParseRequest(%v): want error", bad)
		}
	}
	if _, _, err := ParseRequest(KindCount, url.Values{"dataset": {"d"}, "spec": {"a->b; b->c; c->a"}}); err == nil {
		t.Error("spec on a count request: want error")
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	ctx := context.Background()
	c := NewCache(2)
	compute := func(v int) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}
	for i, key := range []string{"a", "b", "a", "c", "b"} {
		if _, _, _, err := c.Do(ctx, key, compute(i)); err != nil {
			t.Fatal(err)
		}
	}
	// a,b cached; a hit; c evicts b (LRU after a's touch); b recomputes.
	hits, misses, evictions, _ := c.Stats()
	if hits != 1 || misses != 4 || evictions != 2 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 1/4/2", hits, misses, evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Errors are not cached.
	ec := NewCache(2)
	if _, _, _, err := ec.Do(ctx, "k", func(context.Context) (any, error) { return nil, fmt.Errorf("boom") }); err == nil {
		t.Fatal("want error")
	}
	if ec.Len() != 0 {
		t.Fatal("error result was cached")
	}
	// Capacity <= 0 disables storage but still dedups.
	dc := NewCache(-1)
	dc.Do(ctx, "k", compute(1))
	if dc.Len() != 0 {
		t.Fatal("disabled cache stored a result")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	release := make(chan struct{})
	var computes atomic.Int64
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _, err := c.Do(context.Background(), "key", func(context.Context) (any, error) {
				computes.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the leader is inside compute, then let everyone go.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the herd pile onto the flight
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %v", i, v)
		}
	}
	hits, misses, _, coalesced := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if hits+coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d+%d, want %d", hits, coalesced, n-1)
	}
}

func TestCachePanicDoesNotWedgeKey(t *testing.T) {
	ctx := context.Background()
	c := NewCache(4)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(ctx, "key", func(context.Context) (any, error) {
			close(inFlight)
			<-release
			panic("boom")
		})
		leaderErr <- err
	}()
	<-inFlight
	followerErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(ctx, "key", func(context.Context) (any, error) { return nil, nil })
		followerErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the follower join the flight
	close(release)
	for name, ch := range map[string]chan error{"leader": leaderErr, "follower": followerErr} {
		select {
		case err := <-ch:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("%s of a panicked flight: err = %v, want panic error", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s wedged on a panicked flight", name)
		}
	}
	// The key must be usable again, and the panic result not cached.
	v, hit, _, err := c.Do(ctx, "key", func(context.Context) (any, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("key wedged after panic: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache(4)
	started := make(chan struct{})
	gotCanceled := make(chan bool, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(ctx, "key", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done() // flight ctx must cancel once its only waiter leaves
			gotCanceled <- true
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled waiter should get its context error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
	select {
	case <-gotCanceled:
	case <-time.After(2 * time.Second):
		t.Fatal("flight context not canceled after last waiter left")
	}
}

func TestRegistryPanicDoesNotWedgeDataset(t *testing.T) {
	r := NewRegistry(0)
	first := true
	r.Register("d", "", func() (*temporal.Graph, error) {
		if first {
			first = false
			panic("corrupt input")
		}
		return tinyGraph(), nil
	})
	if _, err := r.Get("d"); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", err)
	}
	if _, err := r.Get("d"); err != nil {
		t.Fatalf("dataset wedged after loader panic: %v", err)
	}
}

func TestAdmissionBoundsConcurrency(t *testing.T) {
	const budget = 3
	a := NewAdmission(budget)
	var inflight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := a.Acquire(context.Background(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			cur := inflight.Add(1)
			for {
				old := maxSeen.Load()
				if cur <= old || maxSeen.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			a.Release(w)
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > budget {
		t.Fatalf("max concurrent = %d, budget %d", got, budget)
	}
	waits, inf := a.Stats()
	if waits == 0 {
		t.Error("expected some acquisitions to block")
	}
	if inf != 0 {
		t.Errorf("inflight = %d after drain, want 0", inf)
	}
}

func TestAdmissionWeightClampAndCancel(t *testing.T) {
	a := NewAdmission(4)
	w, err := a.Acquire(context.Background(), 100) // clamped to budget
	if err != nil {
		t.Fatal(err)
	}
	if w != 4 {
		t.Fatalf("clamped weight = %d, want 4", w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, 1)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("want context error")
	}
	a.Release(w)
	// Budget must not have leaked: a full-width acquire succeeds.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if _, err := a.Acquire(ctx2, 4); err != nil {
		t.Fatalf("budget leaked: %v", err)
	}
}

func TestAdmissionFIFO(t *testing.T) {
	a := NewAdmission(2)
	w, _ := a.Acquire(context.Background(), 2)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := a.Acquire(context.Background(), 2)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.Release(got)
		}(i)
		time.Sleep(10 * time.Millisecond) // serialize arrival order
	}
	a.Release(w)
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
}

func TestRegistryLoadOnceAndEvict(t *testing.T) {
	r := NewRegistry(1)
	var loadsA, loadsB atomic.Int64
	g := tinyGraph()
	r.Register("a", "", func() (*temporal.Graph, error) { loadsA.Add(1); return g, nil })
	r.Register("b", "", func() (*temporal.Graph, error) { loadsB.Add(1); return g, nil })

	// Concurrent first access coalesces to one load.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Get("a"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := loadsA.Load(); got != 1 {
		t.Fatalf("a loaded %d times, want 1", got)
	}
	// Loading b evicts a (maxLoaded=1); touching a again reloads it.
	if _, err := r.Get("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	if got := loadsA.Load(); got != 2 {
		t.Fatalf("a loaded %d times after eviction, want 2", got)
	}
	loads, evictions, resident := r.Stats()
	if loads != 3 || evictions != 2 || resident != 1 {
		t.Fatalf("loads/evictions/resident = %d/%d/%d, want 3/2/1", loads, evictions, resident)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("want unknown-dataset error")
	}
	if err := r.Register("a", "", nil); err == nil {
		t.Fatal("want duplicate-registration error")
	}
}

func TestRegistryLoadErrorRetries(t *testing.T) {
	r := NewRegistry(0)
	var n atomic.Int64
	r.Register("flaky", "", func() (*temporal.Graph, error) {
		if n.Add(1) == 1 {
			return nil, fmt.Errorf("transient")
		}
		return tinyGraph(), nil
	})
	if _, err := r.Get("flaky"); err == nil {
		t.Fatal("want first-load error")
	}
	if _, err := r.Get("flaky"); err != nil {
		t.Fatalf("second load should succeed: %v", err)
	}
}

// holdSecondJoiner stops the second caller to enter g, once it is past its
// caller's residency or cache check, until release is closed; checked closes
// when it gets there. A first caller whose flight waits for checked, and a
// release after that flight resolved, force the interleaving in which a
// check-then-join caller finds no flight left to join.
func holdSecondJoiner(g *group) (checked, release chan struct{}) {
	checked, release = make(chan struct{}), make(chan struct{})
	var n atomic.Int64
	g.joining = func(string) {
		if n.Add(1) == 2 {
			close(checked)
			<-release
		}
	}
	return checked, release
}

func TestRegistryLateJoinerFindsResidentGraph(t *testing.T) {
	r := NewRegistry(0)
	checked, release := holdSecondJoiner(&r.graphs.flights)
	var loads atomic.Int64
	g := tinyGraph()
	r.Register("a", "", func() (*temporal.Graph, error) {
		loads.Add(1)
		<-checked // the other Get has seen no resident graph
		return g, nil
	})
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { _, err := r.Get("a"); done <- err }()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			close(release) // the flight has resolved: let the held Get join
		}
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("a loaded %d times, want 1", got)
	}
	if loads, _, resident := r.Stats(); loads != 1 || resident != 1 {
		t.Fatalf("loads/resident = %d/%d, want 1/1", loads, resident)
	}
}

func TestCacheLateJoinerReadsStoredResult(t *testing.T) {
	c := NewCache(4)
	checked, release := holdSecondJoiner(&c.flights)
	var computes atomic.Int64
	type result struct {
		val any
		hit bool
		err error
	}
	done := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			v, hit, _, err := c.Do(context.Background(), "key", func(context.Context) (any, error) {
				computes.Add(1)
				<-checked // the other Do has missed the cache
				return 42, nil
			})
			done <- result{v, hit, err}
		}()
	}
	var hits int
	for i := 0; i < 2; i++ {
		res := <-done
		if res.err != nil || res.val != 42 {
			t.Fatalf("Do = %v, %v; want 42", res.val, res.err)
		}
		if res.hit {
			hits++
		}
		if i == 0 {
			close(release) // the flight has resolved: let the held Do join
		}
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if h, m, _, _ := c.Stats(); hits != 1 || h != 1 || m != 1 {
		t.Fatalf("hit results/hits/misses = %d/%d/%d, want 1/1/1", hits, h, m)
	}
}

func TestQueryEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Options{WorkerBudget: 2})
	code, body := get(t, s, "/v1/count?dataset=tiny&delta=300")
	if code != http.StatusOK {
		t.Fatalf("count status = %d: %v", code, body)
	}
	if got := body["matrix"].(map[string]any)["M26"].(float64); got != 300 {
		t.Fatalf("M26 = %v, want 300", got)
	}
	if body["cached"].(bool) {
		t.Fatal("first request reported cached")
	}
	if got := body["degree_threshold"].(float64); got != 7 {
		t.Fatalf("degree_threshold = %v", got)
	}
	code, body = get(t, s, "/v1/count?dataset=tiny&delta=300")
	if code != http.StatusOK || !body["cached"].(bool) {
		t.Fatalf("second request not cached: %d %v", code, body)
	}
	// The restricted-motif request extracts its cell per request.
	code, body = get(t, s, "/v1/count?dataset=tiny&delta=300&motif=M26")
	if code != http.StatusOK {
		t.Fatalf("motif count status = %d", code)
	}
	if got := body["count"].(float64); got != 300 {
		t.Fatalf("motif count = %v, want 300", got)
	}
	// Every hit stamps its own copy of the stored body: two triangle motifs
	// on one cache key each get their own cell, in turn and interleaved,
	// and a hit on the unrestricted key carries neither field.
	want := map[string]any{"M26": 300.0, "M15": 0.0}
	for _, m := range []string{"M26", "M15", "M26"} {
		code, body = get(t, s, "/v1/count?dataset=tiny&delta=300&motif="+m)
		if code != http.StatusOK || !body["cached"].(bool) || body["motif"] != m || body["count"] != want[m] {
			t.Fatalf("motif=%s: %d %v", m, code, body)
		}
	}
	var wg sync.WaitGroup
	for i := range 8 {
		m := []string{"M26", "M15"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/count?dataset=tiny&delta=300&motif="+m, nil))
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["motif"] != m || body["count"] != want[m] {
				t.Errorf("interleaved motif=%s: %d %s", m, rec.Code, rec.Body)
			}
		}()
	}
	wg.Wait()
	code, body = get(t, s, "/v1/count?dataset=tiny&delta=300")
	if _, ok := body["motif"]; ok || body["count"] != nil || !body["cached"].(bool) {
		t.Fatalf("unrestricted hit: %d %v", code, body)
	}

	code, body = get(t, s, "/v1/star4?dataset=tiny&delta=100")
	if code != http.StatusOK || body["total"].(float64) != 200 {
		t.Fatalf("star4 = %d %v", code, body)
	}
	code, body = get(t, s, "/v1/path4?dataset=tiny&delta=100")
	if code != http.StatusOK || body["total"].(float64) != 300 {
		t.Fatalf("path4 = %d %v", code, body)
	}
	code, body = get(t, s, "/v1/sig?dataset=tiny&delta=100&seed=9&samples=5")
	if code != http.StatusOK {
		t.Fatalf("sig = %d %v", code, body)
	}
	if got := body["samples"].(float64); got != 5 {
		t.Fatalf("sig samples = %v", got)
	}
	motifs := body["motifs"].([]any)
	if len(motifs) != 36 {
		t.Fatalf("sig motifs = %d, want 36", len(motifs))
	}
	if m11 := motifs[0].(map[string]any); m11["real"].(float64) != 9 {
		t.Fatalf("sig real M11 = %v, want seed 9", m11["real"])
	}
}

// TestQueryEndpointSharesCanonicalCacheEntry drives /v1/query end to end:
// isomorphic spec spellings land on one cached computation, the response
// echoes the canonical spec, and the pivot family is reported.
func TestQueryEndpointSharesCanonicalCacheEntry(t *testing.T) {
	s, fb := newTestServer(t, Options{WorkerBudget: 2})
	code, body := get(t, s, "/v1/query?dataset=tiny&delta=200&spec=x-%3Ey,y-%3Ez,z-%3Ex")
	if code != http.StatusOK {
		t.Fatalf("query status = %d: %v", code, body)
	}
	if got := body["total"].(float64); got != 1000 { // fakeBackend: delta*5
		t.Fatalf("total = %v, want 1000", got)
	}
	if got := body["spec"].(string); got != "a->b; b->c; c->a" {
		t.Fatalf("echoed spec = %q, want canonical form", got)
	}
	if got := body["pivot"].(string); got != "center" {
		t.Fatalf("pivot = %q, want center", got)
	}
	if body["cached"].(bool) {
		t.Fatal("first query reported cached")
	}
	// A rotated, arrow-sugared respelling of the same triangle must hit the
	// cache entry the first spelling populated.
	code, body = get(t, s, "/v1/query?dataset=tiny&delta=200&spec=c%3C-b,a%3C-c,b%3C-a")
	if code != http.StatusOK || !body["cached"].(bool) {
		t.Fatalf("isomorphic respelling missed the cache: %d %v", code, body)
	}
	if got := fb.calls.Load(); got != 1 {
		t.Fatalf("backend ran %d times, want 1", got)
	}
	// A star spec compiles to the center-pivot family too, a 4-node path to
	// the edge-pivot one.
	code, body = get(t, s, "/v1/query?dataset=tiny&delta=200&spec=q-%3Er,q-%3Es,q-%3Et")
	if code != http.StatusOK || body["pivot"].(string) != "center" {
		t.Fatalf("star query = %d %v, want pivot=center", code, body)
	}
	code, body = get(t, s, "/v1/query?dataset=tiny&delta=200&spec=a-%3Eb,b-%3Ec,c-%3Ed")
	if code != http.StatusOK || body["pivot"].(string) != "edge" {
		t.Fatalf("path query = %d %v, want pivot=edge", code, body)
	}
}

// TestApproxKeysAndValidation pins the approx request surface: exact keys
// stay byte-for-byte what they were before the approx tier existed, approx
// keys carry every estimator knob, and the knob validation rejections.
func TestApproxKeysAndValidation(t *testing.T) {
	exact := Request{Kind: KindStar4, Dataset: "d", Delta: 600}
	if got, want := exact.Key(), "star4|d|600"; got != want {
		t.Fatalf("exact star4 key = %q, want %q", got, want)
	}
	req, _, err := ParseRequest(KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"0.05"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := req.Key(), "star4|d|600|eps0.05|conf0.95|seed0|m0"; got != want {
		t.Fatalf("approx star4 key = %q, want %q", got, want)
	}
	if req.Conf != 0.95 || !req.ConfSet {
		t.Fatalf("default confidence not canonicalized: %+v", req)
	}
	// Every knob is answer-shaping: each must split the key.
	vary := []url.Values{
		{"dataset": {"d"}, "epsilon": {"0.1"}},
		{"dataset": {"d"}, "epsilon": {"0.05"}, "conf": {"0.99"}},
		{"dataset": {"d"}, "epsilon": {"0.05"}, "seed": {"7"}},
		{"dataset": {"d"}, "epsilon": {"0.05"}, "samples": {"100"}},
	}
	seen := map[string]bool{exact.Key(): true, req.Key(): true}
	for _, q := range vary {
		r, _, err := ParseRequest(KindStar4, q)
		if err != nil {
			t.Fatalf("ParseRequest(%v): %v", q, err)
		}
		if seen[r.Key()] {
			t.Errorf("key collision for %v: %q", q, r.Key())
		}
		seen[r.Key()] = true
	}
	for _, bad := range []struct {
		kind Kind
		q    url.Values
	}{
		{KindCount, url.Values{"dataset": {"d"}, "epsilon": {"0.05"}}},
		{KindSig, url.Values{"dataset": {"d"}, "epsilon": {"0.05"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "conf": {"0.95"}}}, // conf without epsilon
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"0"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"1"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"1.5"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"NaN"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"abc"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"0.05"}, "conf": {"1.0"}}},
		{KindStar4, url.Values{"dataset": {"d"}, "epsilon": {"0.05"}, "samples": {"-1"}}},
		{KindPath4, url.Values{"dataset": {"d"}, "samples": {"10"}}}, // samples without epsilon
		{KindPath4, url.Values{"dataset": {"d"}, "seed": {"3"}}},     // seed without epsilon
	} {
		if _, _, err := ParseRequest(bad.kind, bad.q); err == nil {
			t.Errorf("ParseRequest(%s, %v): want error", bad.kind, bad.q)
		}
	}
}

// TestApproxEndpoints drives epsilon= through the handler: the approx
// fields appear with the estimate and interval, the exact response carries
// none of them, and exact and approx answers occupy distinct cache
// entries.
func TestApproxEndpoints(t *testing.T) {
	s, fb := newTestServer(t, Options{WorkerBudget: 2})
	code, body := get(t, s, "/v1/star4?dataset=tiny&delta=100&epsilon=0.05")
	if code != http.StatusOK {
		t.Fatalf("approx star4 status = %d: %v", code, body)
	}
	if body["approx"] != true {
		t.Fatalf("approx flag missing: %v", body)
	}
	if got := body["estimate"].(float64); got != 200 { // fakeBackend: delta*2
		t.Fatalf("estimate = %v, want 200", got)
	}
	if lo, hi := body["ci_low"].(float64), body["ci_high"].(float64); lo != 199 || hi != 201 {
		t.Fatalf("interval = [%v, %v], want [199, 201]", lo, hi)
	}
	if got := body["total"].(float64); got != 200 {
		t.Fatalf("rounded total = %v, want 200", got)
	}
	if body["epsilon"].(float64) != 0.05 || body["confidence"].(float64) != 0.95 {
		t.Fatalf("knob echo = %v/%v", body["epsilon"], body["confidence"])
	}
	if body["approx_samples"].(float64) != 5 || body["approx_strata"].(float64) != 2 || body["approx_exact_strata"].(float64) != 1 {
		t.Fatalf("telemetry = %v/%v/%v", body["approx_samples"], body["approx_strata"], body["approx_exact_strata"])
	}
	// Exact mode: none of the approx keys may appear in the response.
	code, body = get(t, s, "/v1/star4?dataset=tiny&delta=100")
	if code != http.StatusOK {
		t.Fatalf("exact star4 status = %d", code)
	}
	for _, k := range []string{"approx", "epsilon", "confidence", "estimate", "ci_low", "ci_high", "intervals", "approx_samples", "approx_strata", "approx_exact_strata", "approx_exact"} {
		if _, present := body[k]; present {
			t.Errorf("exact response leaked approx field %q", k)
		}
	}
	if got := fb.calls.Load(); got != 2 {
		t.Fatalf("backend ran %d times, want 2 (approx and exact are distinct cache entries)", got)
	}
	// Repeating the approx request hits its cache entry.
	code, body = get(t, s, "/v1/star4?dataset=tiny&delta=100&epsilon=0.05")
	if code != http.StatusOK || !body["cached"].(bool) {
		t.Fatalf("approx repeat missed cache: %d %v", code, body)
	}
	// Approx path4 and query route to their backend methods and render the
	// same envelope shape.
	code, body = get(t, s, "/v1/path4?dataset=tiny&delta=100&epsilon=0.1&conf=0.9&seed=4")
	if code != http.StatusOK || body["estimate"].(float64) != 300 {
		t.Fatalf("approx path4 = %d %v", code, body)
	}
	if body["epsilon"].(float64) != 0.1 || body["confidence"].(float64) != 0.9 {
		t.Fatalf("path4 knob echo = %v/%v", body["epsilon"], body["confidence"])
	}
	code, body = get(t, s, "/v1/query?dataset=tiny&delta=100&spec=a-%3Eb,b-%3Ec,c-%3Ea&epsilon=0.05")
	if code != http.StatusOK || body["estimate"].(float64) != 500 {
		t.Fatalf("approx query = %d %v", code, body)
	}
	if body["spec"].(string) != "a->b; b->c; c->a" || body["pivot"].(string) != "center" {
		t.Fatalf("approx query spec echo = %v/%v", body["spec"], body["pivot"])
	}
	// Knob rejections surface as 400s at the endpoint, and so does any
	// parameter the kind does not read.
	for _, path := range []string{
		"/v1/count?dataset=tiny&epsilon=0.05",
		"/v1/sig?dataset=tiny&epsilon=0.05",
		"/v1/star4?dataset=tiny&conf=0.95",
		"/v1/star4?dataset=tiny&epsilon=2",
		"/v1/star4?dataset=tiny&samples=5",
		"/v1/path4?dataset=tiny&seed=5",
		"/v1/count?dataset=tiny&samples=5",
		"/v1/count?dataset=tiny&seed=5",
		"/v1/count?dataset=tiny&model=bogus",
		"/v1/query?dataset=tiny&spec=a-%3Eb,b-%3Ec,c-%3Ea&seed=5",
		"/v1/query?dataset=tiny&spec=a-%3Eb,b-%3Ec,c-%3Ea&samples=5",
		"/v1/path4?dataset=tiny&model=bogus",
	} {
		if code, body := get(t, s, path); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400 (%v)", path, code, body)
		}
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for path, want := range map[string]int{
		"/v1/count?dataset=nope":              http.StatusNotFound,
		"/v1/count?dataset=tiny&delta=-1":     http.StatusBadRequest,
		"/v1/count?dataset=tiny&motif=bogus":  http.StatusBadRequest,
		"/v1/count":                           http.StatusBadRequest,
		"/v1/sig?dataset=tiny&model=whatever": http.StatusBadRequest,
		"/v1/query?dataset=tiny":              http.StatusBadRequest, // spec missing
		"/v1/query?dataset=tiny&spec=a-%3Eb":  http.StatusBadRequest, // too few edges
	} {
		code, body := get(t, s, path)
		if code != want {
			t.Errorf("GET %s = %d, want %d (%v)", path, code, want, body)
		}
		if body["error"] == "" {
			t.Errorf("GET %s: missing error body", path)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/count?dataset=tiny", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", rec.Code)
	}
}

func TestServerAdmissionBoundsJobs(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{})}
	s, _ := newTestServer(t, Options{Backend: fb, WorkerBudget: 2})
	var wg sync.WaitGroup
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// workers=1 → weight 1 → at most 2 jobs run concurrently;
			// distinct deltas so requests don't coalesce in the cache.
			rec := httptest.NewRecorder()
			url := fmt.Sprintf("/v1/count?dataset=tiny&delta=%d&workers=1", 100+i)
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
			}
		}(i)
	}
	for fb.inflight.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // give extra jobs the chance to (wrongly) start
	close(fb.block)
	wg.Wait()
	if got := fb.maxSeen.Load(); got > 2 {
		t.Fatalf("max concurrent jobs = %d, want <= 2", got)
	}
	if got := fb.calls.Load(); got != n {
		t.Fatalf("jobs ran = %d, want %d", got, n)
	}
}

func TestDatasetsHealthzMetrics(t *testing.T) {
	s, _ := newTestServer(t, Options{Version: "test-v1"})
	code, body := get(t, s, "/v1/datasets")
	if code != http.StatusOK {
		t.Fatalf("datasets = %d", code)
	}
	ds := body["datasets"].([]any)
	if len(ds) != 1 || ds[0].(map[string]any)["name"] != "tiny" {
		t.Fatalf("datasets = %v", ds)
	}
	if ds[0].(map[string]any)["loaded"].(bool) {
		t.Fatal("tiny should be lazy until first query")
	}
	get(t, s, "/v1/count?dataset=tiny&delta=60")
	_, body = get(t, s, "/v1/datasets")
	d0 := body["datasets"].([]any)[0].(map[string]any)
	if !d0["loaded"].(bool) || d0["edges"].(float64) != 3 {
		t.Fatalf("after query: %v", d0)
	}

	code, body = get(t, s, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" || body["version"] != "test-v1" {
		t.Fatalf("healthz = %d %v", code, body)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`hared_requests_total{endpoint="count"} 1`,
		"hared_cache_misses_total 1",
		"hared_cache_hits_total 0",
		"hared_dataset_loads_total 1",
		"hared_worker_budget",
		`hared_build_info{version="test-v1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("want error for missing backend")
	}
}

// TestCachedCountHitAllocs fences the hit path's allocations: a cached
// /v1/count hit copies the stored response body and encodes it, rendering
// no answer again. Routing, parsing and encoding make the rest.
func TestCachedCountHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/count?dataset=tiny&delta=300", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm the key
	if n := testing.AllocsPerRun(200, serve); n > 125 {
		t.Fatalf("a cached count hit makes %.0f allocations, want at most 125", n)
	}
}

package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hare/internal/gen"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// A canceled sub-request returns the context's error and no partial, for
// every kind the range kernels serve, in process and through a worker's
// handler.
func TestComputeStopsOnCancel(t *testing.T) {
	g := shardTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []server.Request{
		{Kind: server.KindCount},
		{Kind: server.KindCount, Motif: "M26"},
		{Kind: server.KindStar4},
		{Kind: server.KindPath4},
		{Kind: server.KindQuery, Spec: "a->b; b->c; c->a"},
		{Kind: server.KindQuery, Spec: "a->b; b->c; c->d"},
		{Kind: server.KindSig, Model: "time-shuffle", Samples: 8},
		{Kind: server.KindPath4, Epsilon: 0.1, EpsilonSet: true},
	}
	w := &Worker{Graphs: &fakeSource{name: "d", g: g}, Version: "test"}
	for _, req := range reqs {
		req.Dataset, req.Delta, req.Workers = "d", 600, 2
		if _, err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		n := g.NumIncidences()
		if req.Kind == server.KindPath4 {
			n = g.NumEdges()
		}
		if req.Kind == server.KindSig {
			n = req.Samples
		}
		s := sub(req, g, 0, 1, 0, n)
		if req.EpsilonSet {
			s.Hi = 1
		}
		name := fmt.Sprintf("%s %s %s", req.Kind, req.Motif, req.Spec)
		if p, err := compute(ctx, g, s, nil); !errors.Is(err, context.Canceled) || p != nil {
			t.Fatalf("%s: canceled compute returned %v, %v", name, p, err)
		}
		if p, err := compute(context.Background(), g, s, nil); err != nil || p == nil {
			t.Fatalf("%s: live compute failed: %v", name, err)
		}
		body, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathCompute, bytes.NewReader(body)).WithContext(ctx))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: a worker whose caller left answered %d, want 503: %s", name, rec.Code, rec.Body)
		}
	}
}

// stopProbe is the single-node backend with its significance job
// observed: the test learns when the job was admitted, and what the
// in-process range returned.
type stopProbe struct {
	*Coordinator
	entered chan struct{}
	errs    chan error
}

func (p *stopProbe) Significance(ctx context.Context, g *temporal.Graph, req server.Request) (*nullmodel.Report, error) {
	p.entered <- struct{}{}
	rep, err := p.Coordinator.Significance(ctx, g, req)
	p.errs <- err
	return rep, err
}

// A served job whose only request leaves mid-run stops within one chunk
// (here one null sample of the 10,000 asked for, each about 3 ms on this
// 20k-edge graph), hands back its budget so the next request is admitted,
// caches nothing, counts as cancelled in /metrics, and leaves no goroutine
// behind.
func TestCancelStopsAdmittedJob(t *testing.T) {
	cfg, err := gen.DatasetByName("collegemsg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &stopProbe{Coordinator: Local(), entered: make(chan struct{}, 1), errs: make(chan error, 1)}
	s, err := server.New(server.Options{Backend: probe, WorkerBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph("d", "", g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Preload("d"); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	sig := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/sig?dataset=d&delta=600&samples=%d&workers=1", nullmodel.MaxSamples), nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, sig)
		close(served)
	}()
	<-probe.entered // admitted, holding the whole budget of 1
	// The job counts the real graph before its draws; give it the time to
	// reach them, so the stop most likely lands in the draws. It must stop
	// wherever it lands.
	time.Sleep(100 * time.Millisecond)
	cancel()
	<-served
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("the canceled request got HTTP %d, want 503", rec.Code)
	}
	// The job ends with the context's error, within a sample or so. The
	// bound only guards against a hang: all 10,000 draws take 30 s here,
	// several minutes under the race detector.
	select {
	case err := <-probe.errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the canceled job's backend returned %v, want context.Canceled", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the job ran on after its only request left")
	}

	// The budget is back: a count is admitted and answered.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/count?dataset=d&delta=600", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("the next request got HTTP %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"hared_cache_entries 1", // the count's; nothing for the canceled key
		"hared_jobs_cancelled_total 1",
		"hared_jobs_inflight 0",
		"hared_admission_queue_depth 0",
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("metrics lack %q:\n%s", want, rec.Body)
		}
	}

	// Every goroutine the request started has ended.
	for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the request (%d before):\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

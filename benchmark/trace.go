package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hare/internal/approx"
	"hare/internal/higher"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// The traced run records a span at every seam of the system that can be
// reached from outside it: the client's request, the server's handler,
// its dataset loader, its counting backend (on a coordinator that is the
// scatter), each shard RPC and each worker's handler. Nothing inside the
// program is touched; that is ROADMAP item 2.

// span is one timed interval. Spans of one request share Op; Parent is
// the span that caused this one (0 = none). Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written once, when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// counts taken at the same seams
	partialBytes, partials int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	ms := s.ms()
	t.mu.Unlock()
	return ms
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceRef names the span work is done on behalf of. It travels in the
// context within a process and in two headers between processes.
type traceRef struct{ op, span int }

type traceKey struct{}

func withRef(ctx context.Context, r traceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, r)
}

func refFrom(ctx context.Context) traceRef {
	r, _ := ctx.Value(traceKey{}).(traceRef)
	return r
}

const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

func setRefHeaders(h http.Header, r traceRef) {
	h.Set(headerOp, strconv.Itoa(r.op))
	h.Set(headerSpan, strconv.Itoa(r.span))
}

func refFromHeaders(h http.Header) traceRef {
	op, _ := strconv.Atoi(h.Get(headerOp))
	sp, _ := strconv.Atoi(h.Get(headerSpan))
	return traceRef{op, sp}
}

// handler wraps a server's public handler in a "server.handle" span. The
// server's flight context keeps the request context's values, so the ref
// set here reaches the backend decorator.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := refFromHeaders(r.Header)
		id := t.begin("server.handle", ref.span, ref.op)
		defer t.end(id)
		h.ServeHTTP(w, r.WithContext(withRef(r.Context(), traceRef{ref.op, id})))
	})
}

// workerHandler wraps a shard worker's compute handler in a
// "worker.<kind>" span and counts the bytes of each partial it returns.
func (t *tracer) workerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var sub struct {
			Kind string `json:"kind"`
		}
		json.Unmarshal(body, &sub) // a malformed body is the worker's to reject
		ref := refFromHeaders(r.Header)
		id := t.begin("worker."+sub.Kind, ref.span, ref.op)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.end(id)
		t.mu.Lock()
		t.partialBytes += cw.n
		t.partials++
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// loader wraps a dataset loader in a "server.load" span. Loaders take no
// context; parent is the span of the set-up that registers the dataset.
func (t *tracer) loader(parent int, load server.SourcedLoadFunc) server.SourcedLoadFunc {
	return func() (*temporal.Graph, string, error) {
		id := t.begin("server.load", parent, 0)
		defer t.end(id)
		return load()
	}
}

// transport records a "shard.rpc" span around every outgoing request
// whose context carries a ref, and forwards the ref in headers. The
// traced run installs it as http.DefaultTransport, which is what the
// shard client sends through.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tp *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref := refFrom(r.Context())
	if ref.span == 0 {
		return tp.base.RoundTrip(r)
	}
	id := tp.t.begin("shard.rpc", ref.span, ref.op)
	r = r.Clone(r.Context())
	setRefHeaders(r.Header, traceRef{ref.op, id})
	resp, err := tp.base.RoundTrip(r)
	tp.t.end(id) // headers received; the partial's body is a few hundred bytes
	return resp, err
}

// backend decorates a counting backend with a "backend.<kind>" span per
// call. On a coordinator the inner backend is the scatter.
type backend struct {
	t     *tracer
	inner server.Backend
}

func (b backend) span(ctx context.Context, kind string) (context.Context, func()) {
	ref := refFrom(ctx)
	id := b.t.begin("backend."+kind, ref.span, ref.op)
	return withRef(ctx, traceRef{ref.op, id}), func() { b.t.end(id) }
}

func (b backend) Count(ctx context.Context, g *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	ctx, done := b.span(ctx, "count")
	defer done()
	return b.inner.Count(ctx, g, req)
}

func (b backend) Star4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.Star4Counter, error) {
	ctx, done := b.span(ctx, "star4")
	defer done()
	return b.inner.Star4(ctx, g, req)
}

func (b backend) Path4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.PathCounter, error) {
	ctx, done := b.span(ctx, "path4")
	defer done()
	return b.inner.Path4(ctx, g, req)
}

func (b backend) Significance(ctx context.Context, g *temporal.Graph, req server.Request) (*nullmodel.Report, error) {
	ctx, done := b.span(ctx, "sig")
	defer done()
	return b.inner.Significance(ctx, g, req)
}

func (b backend) Query(ctx context.Context, g *temporal.Graph, req server.Request) (uint64, error) {
	ctx, done := b.span(ctx, "query")
	defer done()
	return b.inner.Query(ctx, g, req)
}

func (b backend) Star4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	ctx, done := b.span(ctx, "star4approx")
	defer done()
	return b.inner.Star4Approx(ctx, g, req)
}

func (b backend) Path4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	ctx, done := b.span(ctx, "path4approx")
	defer done()
	return b.inner.Path4Approx(ctx, g, req)
}

func (b backend) QueryApprox(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	ctx, done := b.span(ctx, "queryapprox")
	defer done()
	return b.inner.QueryApprox(ctx, g, req)
}

// spanTree indexes finished spans by parent.
type spanTree struct {
	spans    []span
	children map[int][]int // span id -> indexes of its children
}

func (t *tracer) tree() *spanTree {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	st := &spanTree{spans: spans, children: make(map[int][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], i)
		}
	}
	return st
}

// selfMS is a span's duration minus the part of it its children cover.
func (st *spanTree) selfMS(s *span) float64 {
	kids := st.children[s.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, i := range kids {
		c := st.spans[i]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64
	for _, x := range iv {
		if x[0] > end {
			covered += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return float64(s.End-s.Start-covered) / 1e6
}

// descendants calls f for every span below id.
func (st *spanTree) descendants(id int, f func(*span)) {
	for _, i := range st.children[id] {
		f(&st.spans[i])
		st.descendants(st.spans[i].ID, f)
	}
}

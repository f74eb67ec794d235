// Package server implements hared, the long-lived concurrent query service
// over hare's counting engines. It is organized as three small layers:
//
//   - a Registry, one table of named datasets: an immutable dataset loads
//     at most once per residency (via the parallel loader) into a Cache
//     keyed by its name, which shares the CSR graph across requests and
//     LRU-evicts residents beyond a budget; a live dataset resolves to the
//     snapshot of its current version;
//   - a result Cache keyed by canonicalized request with singleflight
//     deduplication, so a thundering herd of identical queries computes
//     each answer exactly once;
//   - an Admission controller — a weighted FIFO semaphore — bounding the
//     total worker budget of concurrently running counting jobs.
//
// The actual counting is injected through the Backend interface, which
// internal/shard's Coordinator implements (this package imports neither it
// nor the root hare package). The root package installs its single-node
// form, a coordinator over one in-process range, whose answers are the
// same bits a direct library call returns.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"hare/internal/approx"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/query"
	"hare/internal/temporal"
)

// Backend performs the counting for the five query kinds — count, star4,
// path4, sig and query — three of which (star4, path4 and query) also have
// an approximate mode. Implementations must be safe for concurrent use and
// exact: the answer may not depend on req.Workers or req.Thrd. The one
// implementation is internal/shard's Coordinator: over a worker fleet, or
// over one range computed in process (shard.Local, the single-node
// backend). ctx is the job's flight context (canceled only when every
// request waiting on the job has gone): a scatter threads it through its
// RPCs; the in-process range ignores it (admission already handled
// cancellation before compute starts).
type Backend interface {
	Count(ctx context.Context, g *temporal.Graph, req Request) (CountAnswer, error)
	Star4(ctx context.Context, g *temporal.Graph, req Request) (higher.Star4Counter, error)
	Path4(ctx context.Context, g *temporal.Graph, req Request) (higher.PathCounter, error)
	Significance(ctx context.Context, g *temporal.Graph, req Request) (*nullmodel.Report, error)
	// Query counts the instances of req.Spec (canonical after Normalize,
	// guaranteed to parse) within δ — the compiled-plan kind (/v1/query).
	Query(ctx context.Context, g *temporal.Graph, req Request) (uint64, error)
	// Star4Approx, Path4Approx and QueryApprox serve the same three kinds
	// in approximate mode (req.EpsilonSet): a sampled estimate with
	// confidence intervals for path4 and path specs, and for star4 and the
	// other specs, whose exact node-pivot kernels cost no more than a
	// sample, the exact count as zero-width intervals (approx.Exact).
	// Determinism still holds — the result is a pure function of (g, δ,
	// epsilon, conf, seed, samples), never of req.Workers (docs/APPROX.md).
	Star4Approx(ctx context.Context, g *temporal.Graph, req Request) (*approx.Result, error)
	Path4Approx(ctx context.Context, g *temporal.Graph, req Request) (*approx.Result, error)
	QueryApprox(ctx context.Context, g *temporal.Graph, req Request) (*approx.Result, error)
}

// CountAnswer is a Backend.Count result: the exact matrix plus the
// scheduling the engine actually applied.
type CountAnswer struct {
	Matrix          motif.Matrix
	Workers         int
	DegreeThreshold int
}

// Options configures a Server.
type Options struct {
	// Backend runs the counting jobs (required).
	Backend Backend
	// CacheSize bounds the result cache in entries (0 = default 1024,
	// negative = disable storage; in-flight dedup always applies).
	CacheSize int
	// WorkerBudget bounds the summed worker weight of concurrently running
	// jobs (0 = GOMAXPROCS). A request's weight is its workers parameter,
	// defaulting to the full budget (one exclusive job at a time).
	WorkerBudget int
	// MaxLoadedGraphs bounds resident datasets; least recently used
	// residents are evicted and transparently reload (0 = unbounded).
	MaxLoadedGraphs int
	// Version is reported by /healthz and hared_build_info.
	Version string
	// Role names the process's place in a cluster — "single" (default),
	// "coordinator", or "worker" — reported by /healthz so operators can
	// tell scatter/gather tiers apart (docs/SHARDING.md).
	Role string
}

// Server is the hared HTTP service. Create with New, register datasets,
// then serve Handler.
type Server struct {
	backend   Backend
	registry  *Registry
	cache     *Cache
	admission *Admission
	metrics   *metrics
	version   string
	role      string
	mux       *http.ServeMux
}

// New returns a Server with no datasets registered.
func New(opts Options) (*Server, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("server: Options.Backend is required")
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 1024
	}
	budget := opts.WorkerBudget
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		backend:   opts.Backend,
		registry:  NewRegistry(opts.MaxLoadedGraphs),
		cache:     NewCache(cacheSize),
		admission: NewAdmission(budget),
		metrics:   newMetrics(),
		version:   opts.Version,
		role:      opts.Role,
	}
	if s.role == "" {
		s.role = "single"
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/count", s.query(KindCount))
	s.mux.HandleFunc("/v1/star4", s.query(KindStar4))
	s.mux.HandleFunc("/v1/path4", s.query(KindPath4))
	s.mux.HandleFunc("/v1/sig", s.query(KindSig))
	s.mux.HandleFunc("/v1/query", s.query(KindQuery))
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/watch", s.handleWatch)
	s.mux.HandleFunc("/v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Register adds a dataset backed by a loader; see Registry.Register.
func (s *Server) Register(name, desc string, load LoadFunc) error {
	return s.registry.Register(name, desc, load)
}

// RegisterSourced adds a dataset backed by a provenance-reporting loader;
// see Registry.RegisterSourced.
func (s *Server) RegisterSourced(name, desc string, load SourcedLoadFunc) error {
	return s.registry.RegisterSourced(name, desc, load)
}

// RegisterGraph adds a pre-built dataset; see Registry.RegisterGraph.
func (s *Server) RegisterGraph(name, desc string, g *temporal.Graph) error {
	return s.registry.RegisterGraph(name, desc, g)
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Preload loads the named dataset now (instead of on first request) and
// returns its graph.
func (s *Server) Preload(name string) (*temporal.Graph, error) { return s.registry.Get(name) }

// Datasets lists the registered datasets, as /v1/datasets reports them
// (see DatasetInfo).
func (s *Server) Datasets() []DatasetInfo { return s.registry.List() }

// CacheStats exposes the result-cache counters (hits, misses, evictions,
// coalesced in-flight joins) for tests and load reports.
func (s *Server) CacheStats() (hits, misses, evictions, coalesced uint64) {
	return s.cache.Stats()
}

// httpError is an error with a dedicated HTTP status.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// query returns the handler for one query kind.
func (s *Server) query(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		failed := false
		defer func() { s.metrics.observe(string(kind), time.Since(start), failed) }()
		if r.Method != http.MethodGet {
			failed = true
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		req, label, err := ParseRequest(kind, r.URL.Query())
		if err != nil {
			failed = true
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// The flight's context outlives any single request: one client
		// disconnecting never fails the other members of its coalesced
		// flight. Only when every request for the key has gone is the
		// flight canceled, shedding its queued admission wait.
		// cacheKey appends the dataset version for live datasets, so an
		// answer cached at version v is unreachable once an ingest advances
		// the dataset to v+1 — the entry ages out of the LRU on its own.
		val, hit, shared, err := s.cache.Do(r.Context(), s.cacheKey(req), func(ctx context.Context) (any, error) {
			return s.compute(ctx, req)
		})
		if err != nil {
			failed = true
			status := http.StatusInternalServerError
			var unknown *UnknownDatasetError
			var he *httpError
			switch {
			case errors.As(err, &unknown):
				status = http.StatusNotFound
			case errors.As(err, &he):
				status = he.status
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// The requester (or its whole flight) went away first.
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, stamp(val.(*queryResponse), req, label, hit, shared))
	}
}

// compute resolves the dataset, runs one counting job under admission
// control and renders its response body as soon as the backend returns.
// The body is what the cache stores: it carries the scheduling metadata of
// the job and the graph shape it ran against, so serving a hit never needs
// the graph to be resident (a hit on an LRU-evicted dataset must not
// trigger a multi-second reload) and never renders the answer again. It
// executes inside the cache's singleflight: concurrent identical requests
// run it once.
func (s *Server) compute(ctx context.Context, req Request) (any, error) {
	g, err := s.registry.Get(req.Dataset)
	if err != nil {
		return nil, err
	}
	weight, err := s.admission.Acquire(ctx, s.jobWeight(req))
	if err != nil {
		return nil, &httpError{status: http.StatusServiceUnavailable, err: err}
	}
	defer s.admission.Release(weight)
	// The backend always receives the resolved worker count, so the job is
	// exactly as wide as the budget units it holds.
	req.Workers = weight
	start := time.Now()
	out := &queryResponse{
		Dataset:      req.Dataset,
		DeltaSeconds: req.Delta,
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Spec:         req.Spec, // query kind only, like pivot; omitted for the rest
		Workers:      weight,
	}
	// Approx mode of star4/path4/query (req.EpsilonSet): the estimate, and
	// the names of its per-cell intervals.
	var a *approx.Result
	var cellKeys []string
	switch req.Kind {
	case KindCount:
		var ans CountAnswer
		if ans, err = s.backend.Count(ctx, g, req); err == nil {
			out.Matrix = make(map[string]uint64, 36)
			for _, l := range motif.AllLabels() {
				out.Matrix[l.String()] = ans.Matrix.At(l)
			}
			out.Total = ans.Matrix.Total()
			out.DegreeThreshold = &ans.DegreeThreshold
		}
	case KindStar4:
		if req.EpsilonSet {
			a, err = s.backend.Star4Approx(ctx, g, req)
			cellKeys = star4Keys[:]
			break
		}
		var c higher.Star4Counter
		if c, err = s.backend.Star4(ctx, g, req); err == nil {
			out.Patterns = make(map[string]uint64, len(c))
			for i, v := range c {
				out.Patterns[star4Keys[i]] = v
			}
			out.Total = c.Total()
		}
	case KindPath4:
		if req.EpsilonSet {
			a, err = s.backend.Path4Approx(ctx, g, req)
			cellKeys = pathKeys[:]
			break
		}
		var c higher.PathCounter
		if c, err = s.backend.Path4(ctx, g, req); err == nil {
			out.Paths = make(map[string]uint64, 24)
			for i, v := range c {
				if v > 0 {
					out.Paths[pathKeys[i]] = v
				}
			}
			out.Total = c.Total()
		}
	case KindSig:
		var rep *nullmodel.Report
		if rep, err = s.backend.Significance(ctx, g, req); err == nil {
			renderSig(out, req, rep)
		}
	case KindQuery:
		// The pivot is a pure function of the canonical spec, set here
		// rather than by the backend so every backend's answer renders
		// identically.
		if sp, err := query.ParseSpec(req.Spec); err == nil {
			out.Pivot = query.Compile(sp).Kind().String()
		}
		if req.EpsilonSet {
			a, err = s.backend.QueryApprox(ctx, g, req)
			break
		}
		out.Total, err = s.backend.Query(ctx, g, req)
	default:
		return nil, fmt.Errorf("unknown kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	if a != nil {
		renderApprox(out, req, a, cellKeys)
	}
	out.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return out, nil
}

// jobWeight resolves a request's admission weight: its workers hint, or
// the whole budget when unset.
func (s *Server) jobWeight(req Request) int {
	if req.Workers > 0 {
		return req.Workers
	}
	return s.admission.Budget()
}

// queryResponse is the JSON envelope shared by all /v1 query endpoints.
// Exactly one of Matrix, Patterns, Paths, Motifs is set, per kind. compute
// renders one per job and the cache stores it; stamp serves copies.
type queryResponse struct {
	Dataset      string `json:"dataset"`
	DeltaSeconds int64  `json:"delta_seconds"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`

	Matrix          map[string]uint64 `json:"matrix,omitempty"`
	Motif           string            `json:"motif,omitempty"`
	Count           *uint64           `json:"count,omitempty"`
	DegreeThreshold *int              `json:"degree_threshold,omitempty"`

	Patterns map[string]uint64 `json:"patterns,omitempty"`
	Paths    map[string]uint64 `json:"paths,omitempty"`

	// Query kind: the canonical spec text and the compiled plan's pivot
	// family ("center" or "edge"); the count itself is Total.
	Spec  string `json:"spec,omitempty"`
	Pivot string `json:"pivot,omitempty"`

	// Approximate mode (epsilon= on star4/path4/query; docs/APPROX.md).
	// Estimate/CILow/CIHigh carry the total count's interval; Intervals
	// holds the per-cell intervals under the same keys Patterns/Paths use;
	// Total rounds the estimate for clients that only read the exact field.
	// ApproxExact marks an answer the exact kernel gave (zero-width
	// intervals, no strata). Every approx field is omitted from exact
	// responses, which stay byte-for-byte what they were before the approx
	// tier existed.
	Approx            bool                       `json:"approx,omitempty"`
	Epsilon           float64                    `json:"epsilon,omitempty"`
	Confidence        float64                    `json:"confidence,omitempty"`
	Estimate          *float64                   `json:"estimate,omitempty"`
	CILow             *float64                   `json:"ci_low,omitempty"`
	CIHigh            *float64                   `json:"ci_high,omitempty"`
	Intervals         map[string]approx.Interval `json:"intervals,omitempty"`
	ApproxSamples     int                        `json:"approx_samples,omitempty"`
	ApproxStrata      int                        `json:"approx_strata,omitempty"`
	ApproxExactStrata int                        `json:"approx_exact_strata,omitempty"`
	ApproxExact       bool                       `json:"approx_exact,omitempty"`

	Model   string     `json:"model,omitempty"`
	Samples int        `json:"samples,omitempty"`
	Seed    *int64     `json:"seed,omitempty"`
	Motifs  []sigMotif `json:"motifs,omitempty"`

	Total     uint64  `json:"total"`
	Workers   int     `json:"workers"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced,omitempty"`
}

// sigMotif is one motif's significance statistics. Z is omitted (ZInf
// carries the sign) when the null has zero variance and the real count
// differs — JSON cannot represent ±Inf.
type sigMotif struct {
	Label  string   `json:"label"`
	Real   uint64   `json:"real"`
	Mean   float64  `json:"mean"`
	Std    float64  `json:"std"`
	Z      *float64 `json:"z,omitempty"`
	ZInf   string   `json:"z_inf,omitempty"`
	PUpper float64  `json:"p_upper"`
	PLower float64  `json:"p_lower"`
}

// stamp serves a stored response body to one concrete request: a copy
// carrying the request's cache flags and, for a motif= count, the requested
// cell read off the stored matrix — the same cached matrix serves every
// motif restriction in its category. The stored body is never written.
func stamp(body *queryResponse, req Request, label motif.Label, hit, shared bool) *queryResponse {
	out := *body
	out.Cached, out.Coalesced = hit, shared
	if req.Motif != "" {
		out.Motif = label.String()
		c := out.Matrix[out.Motif]
		out.Count = &c
	}
	return &out
}

// star4Keys names the star4 counter's cells as responses key them
// ("out,in,out"), and pathKeys the path4 counter's slots (a canonical
// label's slot carries its name; the other slots are never populated):
// the keys of the exact patterns and paths and of the approx intervals
// alike.
var star4Keys, pathKeys = func() (star [8]string, path [48]string) {
	for i := range star {
		d1, d2, d3 := motif.PairDirs(i)
		star[i] = fmt.Sprintf("%s,%s,%s", d1, d2, d3)
	}
	for _, l := range higher.AllPathLabels() {
		path[l] = l.String()
	}
	return star, path
}()

// renderSig fills the significance response fields from a report.
func renderSig(out *queryResponse, req Request, rep *nullmodel.Report) {
	out.Model = rep.Model.String()
	out.Samples = rep.Trials
	seed := req.Seed
	out.Seed = &seed
	out.Total = rep.Real.Total()
	out.Motifs = make([]sigMotif, 0, 36)
	for _, l := range motif.AllLabels() {
		sm := sigMotif{
			Label:  l.String(),
			Real:   rep.Real.At(l),
			Mean:   rep.MeanAt(l),
			Std:    rep.StdAt(l),
			PUpper: rep.PUpperAt(l),
			PLower: rep.PLowerAt(l),
		}
		switch z := rep.ZScore(l); {
		case math.IsInf(z, 1):
			sm.ZInf = "+"
		case math.IsInf(z, -1):
			sm.ZInf = "-"
		default:
			sm.Z = &z
		}
		out.Motifs = append(out.Motifs, sm)
	}
}

// renderApprox fills the approx-mode response fields from a finished
// estimate. Per-cell intervals reuse the exact endpoints' cell names
// (cellKeys, indexed by cell; nil for a kind with none), so a client can
// line an estimate up against the exact answer key-for-key.
func renderApprox(out *queryResponse, req Request, a *approx.Result, cellKeys []string) {
	out.Approx = true
	out.Epsilon = req.Epsilon
	out.Confidence = req.Conf
	t := a.Total
	out.Estimate, out.CILow, out.CIHigh = &t.Estimate, &t.Low, &t.High
	out.Total = uint64(math.Round(t.Estimate))
	out.ApproxSamples = a.Draws
	out.ApproxStrata = a.Strata
	out.ApproxExactStrata = a.ExactStrata
	out.ApproxExact = a.Exact
	// Per-cell intervals render only when the backend returned the kind's
	// full cell layout (8 star patterns, 48 path slots) — a backend serving
	// totals only still gets a well-formed envelope.
	if len(cellKeys) == 0 || len(a.Cells) < len(cellKeys) {
		return
	}
	out.Intervals = make(map[string]approx.Interval, len(cellKeys))
	for i, k := range cellKeys {
		if k != "" {
			out.Intervals[k] = a.Cells[i]
		}
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.metrics.observe("datasets", time.Since(start), false) }()
	writeJSON(w, map[string]any{"datasets": s.Datasets()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.metrics.observe("healthz", time.Since(start), false) }()
	_, _, resident := s.registry.Stats()
	writeJSON(w, map[string]any{
		"status":         "ok",
		"version":        s.version,
		"role":           s.role,
		"datasets":       len(s.registry.List()),
		"loaded":         resident,
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but note it for the access log.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

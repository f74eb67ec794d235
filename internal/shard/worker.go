package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"

	"hare/internal/approx"
	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/query"
	"hare/internal/server"
	"hare/internal/temporal"
)

// GraphSource resolves dataset names to loaded graphs and lists what is
// registered. *server.Server satisfies it, so a worker process shares one
// registry (and its load-once, LRU, singleflight behavior) between its
// public /v1 endpoints and its shard endpoints.
type GraphSource interface {
	Preload(name string) (*temporal.Graph, error)
	Datasets() []server.DatasetInfo
}

// Worker serves the shard side of the wire protocol: it resolves each
// sub-request's dataset from Graphs, computes the partial for the range
// it was handed with the range kernel of its kind, and answers with exact
// integer payloads.
type Worker struct {
	// Graphs resolves datasets (required).
	Graphs GraphSource
	// Backend is not consulted: every kind, count included, runs its range
	// kernel directly. It is kept so existing wiring compiles.
	Backend server.Backend
	// Version is reported by /shard/v1/info.
	Version string
}

// maxSubRequestBytes bounds a sub-request body the worker decodes. A real
// one is well under a kilobyte; a body past the limit is refused (413)
// before it is buffered, so a hostile one cannot size an allocation or an
// error echo.
const maxSubRequestBytes = 1 << 20

// Handler returns the handler serving PathCompute and PathInfo. Mount it
// at the server root (it matches only the /shard/ paths).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathCompute, w.handleCompute)
	mux.HandleFunc(PathInfo, w.handleInfo)
	return mux
}

func writeWireError(rw http.ResponseWriter, status int, err error, proto int) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(wireError{Error: err.Error(), Proto: proto})
}

func (w *Worker) handleCompute(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeWireError(rw, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method), 0)
		return
	}
	var sub SubRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxSubRequestBytes)).Decode(&sub); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeWireError(rw, status, fmt.Errorf("decoding sub-request: %w", err), 0)
		return
	}
	if err := sub.validate(); err != nil {
		status := http.StatusBadRequest
		if sub.Proto != ProtoVersion {
			// 426 Upgrade Required: version negotiation is explicit, never
			// a silent best-effort answer from mismatched merge semantics.
			status = http.StatusUpgradeRequired
		}
		writeWireError(rw, status, err, ProtoVersion)
		return
	}
	g, err := w.Graphs.Preload(sub.Dataset)
	if err != nil {
		status := http.StatusInternalServerError
		var unknown *server.UnknownDatasetError
		if errors.As(err, &unknown) {
			status = http.StatusNotFound
		}
		writeWireError(rw, status, err, ProtoVersion)
		return
	}
	if g.NumNodes() != sub.Nodes || g.NumEdges() != sub.Edges {
		// 409 Conflict: this worker's replica is not the coordinator's
		// graph. A partial from a different graph would merge silently
		// into a wrong answer — refuse instead.
		writeWireError(rw, http.StatusConflict,
			fmt.Errorf("dataset %s shape mismatch: worker has %d nodes/%d edges, coordinator sent %d/%d",
				sub.Dataset, g.NumNodes(), g.NumEdges(), sub.Nodes, sub.Edges), ProtoVersion)
		return
	}

	p, err := compute(r.Context(), g, sub, nil)
	if err != nil {
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			// The coordinator gave up on this sub-request (its job was
			// canceled, or a hedge won): the kernel stopped, and nobody
			// reads the answer.
			status = http.StatusServiceUnavailable
		}
		writeWireError(rw, status, err, ProtoVersion)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(p)
}

// compute runs the range kernel of sub's kind over sub's range of g and
// returns the partial: the HTTP worker's answer to a sub-request and, under a
// Local coordinator, the whole answer's one range. plan is the coordinator's
// sampling plan for a sampled request; nil rebuilds it from the knobs on the
// wire — the plan is a pure function of (graph, knobs), so a remote worker's
// plan is byte-identical to the coordinator's. The kernels stop within one
// chunk once ctx ends, and compute then returns ctx.Err() and no partial.
// Any other error is the sub-request's fault (a worker answers 400).
func compute(ctx context.Context, g *temporal.Graph, sub SubRequest, plan *approx.Plan) (*Partial, error) {
	p, err := computeRange(ctx.Done(), g, sub, plan)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return p, err
}

// computeRange is compute's kernel dispatch. A kernel stopped by done
// returns no answer or a zero one, which compute discards.
func computeRange(done <-chan struct{}, g *temporal.Graph, sub SubRequest, plan *approx.Plan) (*Partial, error) {
	// The hint never changes the partial, and no request may size per-worker
	// state past the CPUs: admission clamps a public request the same way.
	sub.Workers = min(sub.Workers, runtime.GOMAXPROCS(0))
	p := &Partial{Proto: ProtoVersion, Kind: sub.Kind, Shard: sub.Shard}
	delta := temporal.Timestamp(sub.Delta)
	if sub.EpsilonSet {
		k, err := kernel(sub.Request)
		if err != nil {
			return nil, err
		}
		if k == nil {
			// The coordinator answers the node-pivot families exactly,
			// through an exact sub-request.
			return nil, fmt.Errorf("shard: a sampled %s sub-request has no sampling plan", sub.Kind)
		}
		if plan == nil {
			if plan, err = approx.NewPlan(g, k, approxOptions(sub.Request)); err != nil {
				return nil, err
			}
		}
		if sub.Hi > len(plan.Strata) {
			return nil, fmt.Errorf("shard: stratum range [%d, %d) exceeds plan's %d strata (plan drift)",
				sub.Lo, sub.Hi, len(plan.Strata))
		}
		// The raw moments go back; only the coordinator finishes.
		p.Approx = approx.EstimateStrata(g, k, delta, plan, sub.Workers, sub.Lo, sub.Hi, done)
		return p, nil
	}
	eo, ho := schedule(sub.Request), higherOpts(sub.Request)
	eo.Done, ho.Done = done, done
	switch sub.Kind {
	case server.KindCount:
		var c *motif.Counts
		if sub.Motif == "" {
			c = engine.CountRange(g, delta, eo, sub.Lo, sub.Hi)
		} else {
			// A motif= count runs its category's kernel only; the merge
			// keeps that category's cells.
			l, err := motif.ParseLabel(sub.Motif)
			if err != nil {
				return nil, err
			}
			c = engine.CountCategoryRange(g, delta, eo, sub.Lo, sub.Hi, l.Category())
		}
		if c != nil { // nil: stopped
			p.Cells = c.Cells()
		}
	case server.KindStar4:
		c, _ := higher.CountStar4Range(g, delta, ho, sub.Lo, sub.Hi)
		p.Cells = c[:]
	case server.KindPath4:
		c := higher.CountPath4Range(g, delta, ho, sub.Lo, sub.Hi)
		p.Cells = c[:]
	case server.KindQuery:
		qp, err := compile(sub.Spec)
		if err != nil {
			return nil, err
		}
		p.Cells = []uint64{qp.ExecuteRange(g, delta, ho, sub.Lo, sub.Hi)}
	case server.KindSig:
		model, err := nullmodel.ParseModel(sub.Model)
		if err != nil {
			return nil, err
		}
		if p.Sig, err = nullmodel.SampleMatrices(g, delta, model, sub.Seed, sub.Lo, sub.Hi, sub.Workers, done); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// kernel returns the sampling kernel of a request's family: path4's, or a
// path-plan query's. It is nil for star4 and the other specs, node-pivot
// families whose exact kernels cost no more than a sample, so approximate
// requests for them are answered exactly (docs/APPROX.md).
func kernel(req server.Request) (approx.Kernel, error) {
	switch req.Kind {
	case server.KindPath4:
		return approx.PathKernel{}, nil
	case server.KindQuery:
		qp, err := compile(req.Spec)
		if err != nil || qp.Kind() != query.PlanEdge {
			return nil, err
		}
		return approx.PlanKernel{Plan: qp}, nil
	}
	return nil, nil
}

// compile parses a request's canonical spec and compiles its plan.
func compile(spec string) (*query.Plan, error) {
	s, err := query.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return query.Compile(s), nil
}

// schedule maps a request's scheduling hints onto the scheduler's options,
// as hare.Count maps its options (an unset or zero threshold selects the
// automatic heuristic). The coordinator's count merge reads the same
// mapping to report the threshold.
func schedule(req server.Request) engine.Options {
	opts := engine.Options{Workers: req.Workers}
	// ThrdSet alone decides: Normalize canonicalized thrd=0 to unset, and
	// DegreeThreshold 0 means "auto" here anyway.
	if req.ThrdSet {
		opts.DegreeThreshold = req.Thrd
	}
	return opts
}

// higherOpts is schedule for the higher-order counters.
func higherOpts(req server.Request) higher.Options {
	eo := schedule(req)
	return higher.Options{Workers: eo.Workers, DegreeThreshold: eo.DegreeThreshold}
}

func (w *Worker) handleInfo(rw http.ResponseWriter, r *http.Request) {
	infos := w.Graphs.Datasets()
	names := make([]string, len(infos))
	for i, d := range infos {
		names[i] = d.Name
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(Info{
		Proto:    ProtoVersion,
		Version:  w.Version,
		Role:     "worker",
		Datasets: names,
	})
}

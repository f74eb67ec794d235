package shard

import (
	"context"
	"fmt"

	"hare/internal/approx"
	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// Coordinator is hared's server.Backend: it plans each query as ranges of
// its kind's work domain, delivers one sub-request per range, and merges the
// partials in shard order into the exact answer. NewCoordinator scatters one
// range per peer of a client's worker fleet over HTTP; Local plans one range
// per query and computes it in process, on the coordinator's own graph, with
// the range kernels a worker runs (compute) — a single node is a one-range
// coordinator. Plug it into server.Options.Backend: the serving layer's
// cache, singleflight and admission control then all sit coordinator-side —
// workers only ever see already-deduplicated, already-admitted sub-requests.
//
// Every partition rides a uniqueness argument (a star or pair at its center
// by its last edge, a triangle at its owner by its first, a leg pair at its
// middle edge, an index-derived sample seed) so the merged answer is
// bit-identical at any fleet size, one included, to the library's answer
// for the same request. The node-pivot kinds range over incidence
// positions, so equal ranges hold about equal work.
type Coordinator struct {
	client *Client // nil: Local, one range computed in process
}

// NewCoordinator returns a scatter/gather backend over the client's
// peers.
func NewCoordinator(client *Client) *Coordinator {
	return &Coordinator{client: client}
}

// Local returns the single-node backend: a coordinator that plans one range
// per query and computes it in process, with no HTTP. It is what hared and
// hare.NewServer count with unless a coordinator's fleet replaces it.
func Local() *Coordinator { return &Coordinator{} }

// sub builds one shard's sub-request for a query: the request plus the
// range.
func sub(req server.Request, g *temporal.Graph, shard, shards, lo, hi int) SubRequest {
	return SubRequest{Proto: ProtoVersion, Request: req, Shard: shard, Shards: shards, Lo: lo, Hi: hi,
		Nodes: g.NumNodes(), Edges: g.NumEdges()}
}

// scatter plans req as contiguous ranges of [0, n) and gathers their
// partials. A fleet gets one range per peer, shard i homed on peer i (ranges
// and peers are both position-indexed, so shard i's work lands on worker i
// unless retries or hedges move it). Local computes its one range here on g;
// plan is the coordinator's sampling plan for an approx kind (nil
// otherwise), which the in-process path reuses instead of building it a
// second time. An empty domain is an empty, complete gather: every merge's
// zero answer.
func (c *Coordinator) scatter(ctx context.Context, g *temporal.Graph, req server.Request, n int, plan *approx.Plan) (*Gather, error) {
	if n <= 0 {
		return gatherFor(req, 0), nil
	}
	if c.client == nil {
		p, err := compute(g, sub(req, g, 0, 1, 0, n), plan)
		if err != nil {
			return nil, err
		}
		gather := gatherFor(req, 1)
		return gather, gather.Add(p)
	}
	ranges := Ranges(n, len(c.client.peers))
	tasks := make([]task, len(ranges))
	for i, r := range ranges {
		tasks[i] = task{sub: sub(req, g, i, len(ranges), r.Lo, r.Hi), home: i}
	}
	return c.client.scatter(ctx, tasks)
}

// sum scatters req over [0, n) and sums the partials' raw cells (Sum).
func (c *Coordinator) sum(ctx context.Context, g *temporal.Graph, req server.Request, n int) ([]uint64, error) {
	gather, err := c.scatter(ctx, g, req, n, nil)
	if err != nil {
		return nil, err
	}
	return gather.Sum()
}

// Count scatters equal ranges of the incidence positions — a hub a
// boundary falls inside is swept in part by each of two workers — and
// merges the raw counters in shard order (MergeCount). An automatic degree
// threshold is left to each worker, which reads it from its own replica:
// it only schedules the sweep, so the counts cannot depend on it.
func (c *Coordinator) Count(ctx context.Context, g *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	gather, err := c.scatter(ctx, g, req, g.NumIncidences(), nil)
	if err != nil {
		return server.CountAnswer{}, err
	}
	return gather.MergeCount(g, req)
}

// Star4 sums the partial counters of incidence-position ranges.
func (c *Coordinator) Star4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.Star4Counter, error) {
	cells, err := c.sum(ctx, g, req, g.NumIncidences())
	if err != nil {
		return higher.Star4Counter{}, err
	}
	return higher.Star4Counter(cells), nil
}

// Path4 sums the partial counters of edge ID ranges: each the range's leg
// pairs minus its triangle correction, a count only in the sum.
func (c *Coordinator) Path4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.PathCounter, error) {
	cells, err := c.sum(ctx, g, req, g.NumEdges())
	if err != nil {
		return higher.PathCounter{}, err
	}
	return higher.PathCounter(cells), nil
}

// Query compiles the (already canonical) spec and sums the partial counts
// of ranges of the plan's range domain — incidence positions for center
// plans (star, pair and triangle specs), edge IDs for path plans (whose
// partials are a cell of path4's).
func (c *Coordinator) Query(ctx context.Context, g *temporal.Graph, req server.Request) (uint64, error) {
	qp, err := compile(req.Spec)
	if err != nil {
		return 0, err
	}
	cells, err := c.sum(ctx, g, req, qp.RangeDomain(g))
	if err != nil {
		return 0, err
	}
	return cells[0], nil
}

// approxOptions maps a normalized approx-mode request onto the estimator
// knobs, as hare.ApproxOptions does; Workers is a scheduling hint only.
func approxOptions(req server.Request) approx.Options {
	return approx.Options{Epsilon: req.Epsilon, Confidence: req.Conf, Seed: req.Seed, Samples: req.Samples}
}

// exact is req with its estimator knobs cleared: the exact request whose
// scatter answers an approximate request for a node-pivot family.
func exact(req server.Request) server.Request {
	req.Epsilon, req.EpsilonSet, req.Conf, req.ConfSet, req.Seed, req.Samples = 0, false, 0, false, 0, 0
	return req
}

// approxScatter runs one sampled request: build the sampling plan locally,
// scatter contiguous stratum-index ranges like every range kind, and finish
// the gathered moments against the local plan. Remote workers rebuild the
// identical plan from the knobs on the wire; in process the plan is
// reused. The finished result is bit-identical to the library's at any
// fleet size (docs/APPROX.md).
func (c *Coordinator) approxScatter(ctx context.Context, g *temporal.Graph, req server.Request, k approx.Kernel) (*approx.Result, error) {
	plan, err := approx.NewPlan(g, k, approxOptions(req))
	if err != nil {
		return nil, err
	}
	gather, err := c.scatter(ctx, g, req, len(plan.Strata), plan)
	if err != nil {
		return nil, err
	}
	return gather.MergeApprox(plan)
}

// Star4Approx answers exactly, as hare.CountStar4Approx does: the exact
// star4 scatter, finished by approx.Exact.
func (c *Coordinator) Star4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	s4, err := c.Star4(ctx, g, exact(req))
	if err != nil {
		return nil, err
	}
	return approx.Exact(s4[:], g.NumNodes(), approxOptions(req)), nil
}

// Path4Approx scatters stratum ranges of the path sampling plan.
func (c *Coordinator) Path4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return c.approxScatter(ctx, g, req, approx.PathKernel{})
}

// QueryApprox reads the (already canonical) spec's sampling kernel. A path
// plan scatters stratum ranges of its plan-kernel sampling plan; a center
// plan is answered exactly, as hare.CountMotifApprox does: the exact query
// scatter, finished by approx.Exact.
func (c *Coordinator) QueryApprox(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	k, err := kernel(req)
	if err != nil {
		return nil, err
	}
	if k != nil {
		return c.approxScatter(ctx, g, req, k)
	}
	n, err := c.Query(ctx, g, exact(req))
	if err != nil {
		return nil, err
	}
	return approx.Exact([]uint64{n}, g.NumNodes(), approxOptions(req)), nil
}

// Significance counts the real graph locally (the coordinator holds a
// replica anyway, and the real count is one engine run), scatters
// sample-index ranges, and folds the returned raw sample matrices through
// the deterministic Welford chunk tree — bit-identical to a local
// ensemble run because the per-sample seed chain is index-derived and the
// shard ranges are contiguous and ascending.
func (c *Coordinator) Significance(ctx context.Context, g *temporal.Graph, req server.Request) (*nullmodel.Report, error) {
	model, err := nullmodel.ParseModel(req.Model)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	samples := req.Samples
	if samples <= 0 {
		samples = nullmodel.DefaultSamples
	}
	real := engine.Count(g, temporal.Timestamp(req.Delta), engine.Options{Workers: req.Workers}).ToMatrix()
	gather, err := c.scatter(ctx, g, req, samples, nil)
	if err != nil {
		return nil, err
	}
	return gather.MergeSig(model, real, req.Workers)
}

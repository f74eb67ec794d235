package shard

import (
	"context"
	"fmt"

	"hare/internal/approx"
	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/nullmodel"
	"hare/internal/query"
	"hare/internal/server"
	"hare/internal/temporal"
)

// Coordinator implements server.Backend by scattering each query across
// the client's worker fleet and gathering the partials into the exact
// single-node answer. Plug it into server.Options.Backend: the serving
// layer's cache, singleflight and admission control then all sit
// coordinator-side — workers only ever see already-deduplicated,
// already-admitted sub-requests.
//
// Every partition rides a uniqueness argument (a star or pair at its center
// by its last edge, a triangle at its owner by its first, a path at its
// middle edge, an index-derived sample seed) so the merged answer is
// bit-identical to the in-process library backend at any fleet size. Every
// kind scatters one range per peer; the node-pivot kinds range over
// incidence positions, so equal ranges hold about equal work.
type Coordinator struct {
	client *Client
}

// NewCoordinator returns a scatter/gather backend over the client's
// peers.
func NewCoordinator(client *Client) *Coordinator {
	return &Coordinator{client: client}
}

// sub builds the plan-invariant fields of a sub-request for one query.
func sub(req server.Request, g *temporal.Graph, shard, shards, lo, hi int) SubRequest {
	return SubRequest{
		Proto:   ProtoVersion,
		Kind:    req.Kind,
		Dataset: req.Dataset,
		Delta:   req.Delta,
		Shard:   shard,
		Shards:  shards,
		Lo:      lo,
		Hi:      hi,
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Workers: req.Workers,
		Thrd:    req.Thrd,
		ThrdSet: req.ThrdSet,
		Motif:   req.Motif,
		Model:   req.Model,
		Seed:    req.Seed,
		Spec:    req.Spec,
	}
}

// rangeTasks plans one task per contiguous range of [0, n), home peer i
// for shard i (ranges and peers are both position-indexed, so shard i's
// work lands on worker i unless retries or hedges move it).
func (c *Coordinator) rangeTasks(req server.Request, g *temporal.Graph, n int) []task {
	ranges := Ranges(n, len(c.client.peers))
	tasks := make([]task, len(ranges))
	for i, r := range ranges {
		tasks[i] = task{sub: sub(req, g, i, len(ranges), r.Lo, r.Hi), home: i}
	}
	return tasks
}

// Count scatters equal ranges of the incidence positions — a hub a
// boundary falls inside is swept in part by each of two workers — and
// merges the raw counters in shard order (MergeCount).
func (c *Coordinator) Count(ctx context.Context, g *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	tasks := c.rangeTasks(req, g, g.NumIncidences())
	gather := NewGather(server.KindCount, 0) // an edgeless graph: the zero answer
	if len(tasks) > 0 {
		var err error
		if gather, err = c.client.scatter(ctx, tasks); err != nil {
			return server.CountAnswer{}, err
		}
	}
	return gather.MergeCount(g, req)
}

// Star4 scatters incidence-position ranges and sums the partial counters
// in shard order.
func (c *Coordinator) Star4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.Star4Counter, error) {
	tasks := c.rangeTasks(req, g, g.NumIncidences())
	if len(tasks) == 0 {
		return higher.Star4Counter{}, nil
	}
	gather, err := c.client.scatter(ctx, tasks)
	if err != nil {
		return higher.Star4Counter{}, err
	}
	return gather.MergeStar4()
}

// Path4 scatters middle-edge ID ranges and sums the partial counters in
// shard order.
func (c *Coordinator) Path4(ctx context.Context, g *temporal.Graph, req server.Request) (higher.PathCounter, error) {
	tasks := c.rangeTasks(req, g, g.NumEdges())
	if len(tasks) == 0 {
		return higher.PathCounter{}, nil
	}
	gather, err := c.client.scatter(ctx, tasks)
	if err != nil {
		return higher.PathCounter{}, err
	}
	return gather.MergePath4()
}

// Query compiles the (already canonical) spec and scatters ranges of the
// plan's range domain — incidence positions for center plans (star, pair
// and triangle specs), middle-edge IDs for path plans — summing the partial
// counts in shard order.
func (c *Coordinator) Query(ctx context.Context, g *temporal.Graph, req server.Request) (uint64, error) {
	spec, err := query.ParseSpec(req.Spec)
	if err != nil {
		return 0, err
	}
	tasks := c.rangeTasks(req, g, query.Compile(spec).RangeDomain(g))
	if len(tasks) == 0 {
		return 0, nil
	}
	gather, err := c.client.scatter(ctx, tasks)
	if err != nil {
		return 0, err
	}
	return gather.MergeQuery()
}

// approxOptions maps a normalized approx-mode request onto the estimator
// knobs, as the in-process backend does; Workers is a scheduling hint only.
func approxOptions(req server.Request) approx.Options {
	return approx.Options{Epsilon: req.Epsilon, Confidence: req.Conf, Seed: req.Seed, Samples: req.Samples}
}

// approxScatter runs one sampled approximate-mode query: build the sampling
// plan locally, scatter contiguous stratum-index ranges across the fleet
// (one range per peer, like every range kind), and finish the gathered
// moments against the local plan. Workers rebuild the identical plan from
// the knobs on the wire, so the finished result is bit-identical to the
// in-process backend at any fleet size (docs/APPROX.md).
func (c *Coordinator) approxScatter(ctx context.Context, g *temporal.Graph, req server.Request, kind server.Kind, k approx.Kernel) (*approx.Result, error) {
	plan, err := approx.NewPlan(g, k, approxOptions(req))
	if err != nil {
		return nil, err
	}
	ranges := Ranges(len(plan.Strata), len(c.client.peers))
	tasks := make([]task, len(ranges))
	for i, r := range ranges {
		s := sub(req, g, i, len(ranges), r.Lo, r.Hi)
		s.Kind = kind
		s.Epsilon, s.Conf, s.Samples = req.Epsilon, req.Conf, req.Samples
		tasks[i] = task{sub: s, home: i}
	}
	if len(tasks) == 0 {
		// Empty domain: the plan has no strata and the finish is the
		// all-zero estimate, same as a local run on the empty graph.
		return approx.Finish(plan, nil)
	}
	gather, err := c.client.scatter(ctx, tasks)
	if err != nil {
		return nil, err
	}
	return gather.MergeApprox(plan)
}

// Star4Approx answers exactly, as the in-process backend does: the exact
// star4 scatter, finished by approx.Exact.
func (c *Coordinator) Star4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	s4, err := c.Star4(ctx, g, req)
	if err != nil {
		return nil, err
	}
	return approx.Exact(s4[:], g.NumNodes(), approxOptions(req)), nil
}

// Path4Approx scatters stratum ranges of the path sampling plan.
func (c *Coordinator) Path4Approx(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return c.approxScatter(ctx, g, req, KindPath4Approx, approx.PathKernel{})
}

// QueryApprox compiles the (already canonical) spec. A path plan scatters
// stratum ranges of its plan-kernel sampling plan; a center plan is answered
// exactly, as in process: the exact query scatter, finished by approx.Exact.
func (c *Coordinator) QueryApprox(ctx context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	spec, err := query.ParseSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	if plan := query.Compile(spec); plan.Kind() == query.PlanEdge {
		return c.approxScatter(ctx, g, req, KindQueryApprox, approx.PlanKernel{Plan: plan})
	}
	n, err := c.Query(ctx, g, req)
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
	tasks := c.rangeTasks(req, g, samples)
	gather, err := c.client.scatter(ctx, tasks)
	if err != nil {
		return nil, err
	}
	return gather.MergeSig(model, real, req.Workers)
}

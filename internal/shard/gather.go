package shard

import (
	"fmt"
	"sync"

	"hare/internal/approx"
	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// Gather accumulates partial answers for one scatter plan, keyed by shard
// index. It is idempotent under the delivery anomalies retries and hedges
// produce — duplicates, reordering, a late straggler answering after its
// hedge already landed: the first partial accepted for a shard wins and
// every later delivery for that index is dropped. Merge order is fixed by
// shard index, never by arrival order, so the assembled answer is a pure
// function of the plan.
type Gather struct {
	mu    sync.Mutex
	kind  server.Kind
	parts []*Partial
	have  int
}

// NewGather returns an empty gather for a plan of `shards` partials of
// one kind.
func NewGather(kind server.Kind, shards int) *Gather {
	return &Gather{kind: kind, parts: make([]*Partial, shards)}
}

// Add offers one partial. Duplicates for an already-filled shard index
// are silently dropped (idempotent delivery); a partial that cannot
// belong to the plan — wrong kind, shard index out of range, or missing
// its kind's payload — is an error.
func (g *Gather) Add(p *Partial) error {
	if p == nil {
		return fmt.Errorf("shard: nil partial")
	}
	if p.Kind != g.kind {
		return fmt.Errorf("shard: partial kind %q in a %q gather", p.Kind, g.kind)
	}
	if p.Shard < 0 || p.Shard >= len(g.parts) {
		return fmt.Errorf("shard: partial for shard %d, plan has %d", p.Shard, len(g.parts))
	}
	var ok bool
	switch g.kind {
	case server.KindCount:
		ok = p.Count != nil
	case server.KindStar4:
		ok = p.Star4 != nil
	case server.KindPath4:
		ok = p.Path4 != nil
	case server.KindSig:
		ok = len(p.Sig) > 0 // an empty list is omitted on the wire: no payload
	case server.KindQuery:
		ok = p.Query != nil
	case KindPath4Approx, KindQueryApprox:
		ok = len(p.Approx) > 0
	}
	if !ok {
		return fmt.Errorf("shard: partial for shard %d carries no %s payload", p.Shard, g.kind)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.parts[p.Shard] == nil {
		g.parts[p.Shard] = p
		g.have++
	}
	return nil
}

// Complete reports whether every shard has answered.
func (g *Gather) Complete() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.have == len(g.parts)
}

// Missing lists the shard indices still unanswered, in order.
func (g *Gather) Missing() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []int
	for i, p := range g.parts {
		if p == nil {
			out = append(out, i)
		}
	}
	return out
}

// incomplete returns the loud error for a gather with holes.
func (g *Gather) incomplete() error {
	return fmt.Errorf("shard: %s gather incomplete: missing shards %v", g.kind, g.Missing())
}

// MergeStar4 sums the per-range Star4Counters in shard order. The cells
// are exact uint64 tallies over disjoint incidence ranges, so the sum
// equals the single-node counter bit for bit.
func (g *Gather) MergeStar4() (higher.Star4Counter, error) {
	var total higher.Star4Counter
	if !g.Complete() {
		return total, g.incomplete()
	}
	for _, p := range g.parts {
		total.Add(p.Star4)
	}
	return total, nil
}

// MergePath4 sums the per-range PathCounters in shard order; exact for
// the same reason as MergeStar4 (disjoint middle-edge ranges).
func (g *Gather) MergePath4() (higher.PathCounter, error) {
	var total higher.PathCounter
	if !g.Complete() {
		return total, g.incomplete()
	}
	for _, p := range g.parts {
		total.Add(p.Path4)
	}
	return total, nil
}

// MergeCount sums the raw count partials in shard order — counters over a
// partition of g's incidence positions, which add up cell by cell to the
// whole graph's — and converts the sum once with ToMatrix (which halves the
// pair cells, so per-shard matrices would not add up). It then answers as
// the library path does for the same request: the motif= restriction is
// hare.Count's (motif.Matrix.KeepCategory), and the workers and threshold
// echo are what hare.Count reports for req's hints on g — read off req with
// no degree scan when req carries a threshold, as Coordinator.Count's does.
func (g *Gather) MergeCount(gr *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	if !g.Complete() {
		return server.CountAnswer{}, g.incomplete()
	}
	var total motif.Counts
	for _, p := range g.parts {
		total.Add(p.Count)
	}
	m := total.ToMatrix()
	if req.Motif != "" {
		l, err := motif.ParseLabel(req.Motif)
		if err != nil {
			return server.CountAnswer{}, err
		}
		m.KeepCategory(l.Category())
	}
	eo := schedule(SubRequest{Workers: req.Workers, Thrd: req.Thrd, ThrdSet: req.ThrdSet})
	thrd := 0
	if !eo.Sequential() {
		thrd = engine.EffectiveDegreeThreshold(gr, eo)
	}
	return server.CountAnswer{Matrix: m, Workers: eo.EffectiveWorkers(), DegreeThreshold: thrd}, nil
}

// MergeQuery sums the per-range spec counts in shard order. Each instance
// has a unique place in the range domain (its center and last edge, or its
// pivot edge), so partial counts over disjoint ranges sum — exactly, as
// uint64 tallies — to the single-node answer.
func (g *Gather) MergeQuery() (uint64, error) {
	if !g.Complete() {
		return 0, g.incomplete()
	}
	var total uint64
	for _, p := range g.parts {
		total += *p.Query
	}
	return total, nil
}

// MergeApprox concatenates the per-stratum moments in shard order —
// recovering exactly the stratum order a single process would have
// produced, because the scatter ranges are contiguous and ascending — and
// finishes against the coordinator's plan. Finish re-validates every
// stratum's draw count and exactness against the plan, so a worker whose
// replica rebuilt a different plan fails the merge loudly instead of
// contributing silently-wrong moments.
func (g *Gather) MergeApprox(plan *approx.Plan) (*approx.Result, error) {
	if !g.Complete() {
		return nil, g.incomplete()
	}
	var moments []approx.Moments
	for _, p := range g.parts {
		moments = append(moments, p.Approx...)
	}
	return approx.Finish(plan, moments)
}

// MergeSig concatenates the raw per-sample matrices in shard order —
// recovering exactly the sample-index order a single process would have
// observed, because the plan's ranges are contiguous and ascending — and
// folds them through the deterministic Welford chunk tree. The resulting
// report is bit-identical to a local nullmodel Ensemble.Run with the same
// model, seed and total sample count.
func (g *Gather) MergeSig(model nullmodel.Model, real motif.Matrix, workers int) (*nullmodel.Report, error) {
	if !g.Complete() {
		return nil, g.incomplete()
	}
	var samples []motif.Matrix
	for _, p := range g.parts {
		samples = append(samples, p.Sig...)
	}
	return nullmodel.ReportFromSamples(model, real, samples, workers)
}

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
	// sampled marks a sampled request's gather: its partials carry
	// per-stratum moments (Partial.Approx), not cells.
	sampled bool
}

// NewGather returns an empty gather for a plan of `shards` partials of
// one kind.
func NewGather(kind server.Kind, shards int) *Gather {
	return &Gather{kind: kind, parts: make([]*Partial, shards)}
}

// gatherFor returns the gather for a plan of `shards` sub-requests of req.
func gatherFor(req server.Request, shards int) *Gather {
	g := NewGather(req.Kind, shards)
	g.sampled = req.EpsilonSet
	return g
}

// cellWidth is the raw-cell width of each summing kind's partial
// (Partial.Cells); the other kinds carry their own payloads.
var cellWidth = map[server.Kind]int{
	server.KindCount: motif.NumCells,
	server.KindStar4: len(higher.Star4Counter{}),
	server.KindPath4: len(higher.PathCounter{}),
	server.KindQuery: 1,
}

// Add offers one partial. Duplicates for an already-filled shard index
// are silently dropped (idempotent delivery); a partial that cannot
// belong to the plan — wrong kind, shard index out of range, or missing
// its payload (for a sampled gather: no moments; for a summing kind: not
// exactly its width of cells) — is an error.
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
	width, ok := cellWidth[g.kind]
	switch {
	case g.sampled:
		ok = len(p.Approx) > 0
	case g.kind == server.KindSig:
		ok = len(p.Sig) > 0 // an empty list is omitted on the wire: no payload
	case ok && len(p.Cells) != width:
		return fmt.Errorf("shard: %s partial for shard %d carries %d cells, want %d", g.kind, p.Shard, len(p.Cells), width)
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

// Sum adds the summing kind's raw cells (Partial.Cells) in shard order.
// They are exact uint64 tallies over disjoint ranges of the kind's domain —
// each instance has one place in it: a star or pair at its center by its
// last edge, a triangle at its owner by its first, a path at its middle
// edge — so the sum equals the single-node counters bit for bit.
func (g *Gather) Sum() ([]uint64, error) {
	if !g.Complete() {
		return nil, g.incomplete()
	}
	total := make([]uint64, cellWidth[g.kind])
	for _, p := range g.parts {
		for i, v := range p.Cells {
			total[i] += v
		}
	}
	return total, nil
}

// MergeCount sums the raw count partials (Sum) and converts the sum once
// with ToMatrix (which halves the pair cells, so per-shard matrices would
// not add up). It then answers as the library path does for the same
// request: the motif= restriction is hare.Count's (motif.Matrix.KeepCategory),
// and the workers and threshold echo are what hare.Count reports for req's
// hints on g (an automatic threshold is gr's derived one, scanned once per
// graph).
func (g *Gather) MergeCount(gr *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	cells, err := g.Sum()
	if err != nil {
		return server.CountAnswer{}, err
	}
	total := motif.CountsFromCells(cells)
	m := total.ToMatrix()
	if req.Motif != "" {
		l, err := motif.ParseLabel(req.Motif)
		if err != nil {
			return server.CountAnswer{}, err
		}
		m.KeepCategory(l.Category())
	}
	eo := schedule(req)
	thrd := 0
	if !eo.Sequential() {
		thrd = engine.EffectiveDegreeThreshold(gr, eo)
	}
	return server.CountAnswer{Matrix: m, Workers: eo.EffectiveWorkers(), DegreeThreshold: thrd}, nil
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

package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"hare"
	"hare/internal/motif"
	"hare/internal/server"
)

// Motif specs of the two query-plan families (docs/QUERY.md): a triangle
// compiles to an edge-pivot plan, an out-star to a center-pivot plan.
const (
	specTriangle = "x->y, y->z, z->x"
	specOutStar  = "hub->s1, hub->s2, hub->s3"
)

const approxEpsilon = 0.05

// op is one request of an operation list together with what is needed to
// recompute its answer with direct library calls.
type op struct {
	id      int
	label   string // name of its mix entry, for per-kind reporting
	kind    server.Kind
	name    string // dataset name as registered with the server
	ds      *dataset
	delta   int64
	motif   string
	spec    string
	eps     float64 // > 0 selects the sampling estimator
	seed    int64
	samples int
	workers int
	verify  bool // in the sample compared bit for bit with the library
	path    string
}

func (o *op) buildPath() {
	q := url.Values{}
	q.Set("dataset", o.name)
	q.Set("delta", strconv.FormatInt(o.delta, 10))
	if o.motif != "" {
		q.Set("motif", o.motif)
	}
	if o.spec != "" {
		q.Set("spec", o.spec)
	}
	if o.eps > 0 {
		q.Set("epsilon", strconv.FormatFloat(o.eps, 'g', -1, 64))
	}
	if o.eps > 0 || o.kind == server.KindSig {
		q.Set("seed", strconv.FormatInt(o.seed, 10))
	}
	if o.samples > 0 {
		q.Set("samples", strconv.Itoa(o.samples))
	}
	if o.workers > 0 {
		q.Set("workers", strconv.Itoa(o.workers))
	}
	o.path = "/v1/" + string(o.kind) + "?" + q.Encode()
}

// mixEntry is one request shape of a traffic mix; share is its count in
// every block of the list.
type mixEntry struct {
	label string
	share int
	make  func(fx *fixtures) op
}

// fixtures are the datasets a serve workload registers, by role.
type fixtures struct {
	wiki    *dataset
	college *dataset
}

// The names the two are registered under.
const (
	wikiName    = "wiki"
	collegeName = "college"
)

func exact(kind server.Kind, spec string) func(*fixtures) op {
	return func(fx *fixtures) op {
		return op{kind: kind, spec: spec, name: wikiName, ds: fx.wiki}
	}
}

func estimate(kind server.Kind) func(*fixtures) op {
	return func(fx *fixtures) op {
		return op{kind: kind, eps: approxEpsilon, name: wikiName, ds: fx.wiki}
	}
}

// sigOp is a significance ensemble on the small dataset: eight null
// samples, each a reshuffle and a full recount.
func sigOp(fx *fixtures) op {
	return op{kind: server.KindSig, samples: 8, name: collegeName, ds: fx.college}
}

// coldMix is serve-cold's traffic, 20 requests to a block: kernel-bound
// kinds on the hub-skewed dataset, every family and both approx modes.
var coldMix = []mixEntry{
	{"count", 6, exact(server.KindCount, "")},
	{"star4", 3, exact(server.KindStar4, "")},
	{"path4", 3, exact(server.KindPath4, "")},
	{"query-edge", 2, exact(server.KindQuery, specTriangle)},
	{"query-center", 1, exact(server.KindQuery, specOutStar)},
	{"path4-approx", 2, estimate(server.KindPath4)},
	{"star4-approx", 1, estimate(server.KindStar4)},
	{"sig", 2, sigOp},
}

// clusterMix is cluster-scatter's traffic: the same kinds, weighted
// towards those the coordinator splits by range.
var clusterMix = []mixEntry{
	{"star4", 6, exact(server.KindStar4, "")},
	{"path4", 4, exact(server.KindPath4, "")},
	{"query-edge", 2, exact(server.KindQuery, specTriangle)},
	{"query-center", 1, exact(server.KindQuery, specOutStar)},
	{"path4-approx", 2, estimate(server.KindPath4)},
	{"sig", 2, sigOp},
	{"count", 3, exact(server.KindCount, "")},
}

// deltas hands out distinct δ values in [lo, hi] from a low-discrepancy
// sequence whose phase comes from the seed. Any prefix of it covers the
// range evenly, so the work in a list barely depends on the seed, while
// no two requests of one shape share a cache key until the range is used
// up.
type deltas struct {
	lo, span int64
	phase    float64
	n        int
	used     map[int64]bool
}

func newDeltas(rng *rand.Rand, lo, hi int64) *deltas {
	return &deltas{lo: lo, span: hi - lo + 1, phase: rng.Float64(), used: make(map[int64]bool)}
}

func (d *deltas) next() int64 {
	const golden = 0.6180339887498949
	for {
		x := d.phase + float64(d.n)*golden
		d.n++
		v := d.lo + int64((x-math.Floor(x))*float64(d.span))
		if !d.used[v] {
			d.used[v] = true
			return v
		}
		if len(d.used) >= int(d.span) {
			clear(d.used) // every value handed out once: start over
		}
	}
}

// buildList expands a mix into blocks whose request order is shuffled by
// the seed; one request in eight, chosen by the seed, is marked for
// bit-for-bit verification.
func buildList(seed int64, mix []mixEntry, blocks int, fx *fixtures, workers int) []*op {
	rng := rand.New(rand.NewSource(seed))
	seqs := make(map[string]*deltas)
	var template []int
	for i, m := range mix {
		seqs[m.label] = newDeltas(rng, 300, 900)
		for j := 0; j < m.share; j++ {
			template = append(template, i)
		}
	}
	verifyPhase := rng.Intn(8)
	var list []*op
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(template), func(i, j int) { template[i], template[j] = template[j], template[i] })
		for _, mi := range template {
			m := mix[mi]
			o := m.make(fx)
			o.id = len(list) + 1
			o.label = m.label
			o.delta = seqs[m.label].next()
			o.seed = int64(o.id)
			o.workers = workers
			o.verify = (o.id+verifyPhase)%8 == 0
			o.buildPath()
			list = append(list, &o)
		}
	}
	return list
}

// hotKeys is serve-hot's key set: 32 requests over all five kinds, mostly
// on the small dataset, with motif-restricted counts that share a cached
// matrix. Only the δ values depend on the seed, so response sizes — which
// the hit path's cost follows — stay put.
func hotKeys(seed int64, fx *fixtures) []*op {
	rng := rand.New(rand.NewSource(seed))
	ds := newDeltas(rng, 300, 900)
	// Two labels per category: each pair shares one cache entry per δ.
	var star, tri []string
	for _, l := range hare.AllLabels() {
		if l.Category() == hare.CategoryTri {
			tri = append(tri, l.String())
		} else if l.Category() == hare.CategoryStar {
			star = append(star, l.String())
		}
	}
	var keys []*op
	add := func(o op, label string) {
		o.id = len(keys) + 1
		o.label = label
		o.seed = int64(o.id)
		o.verify = true
		if o.delta == 0 {
			o.delta = ds.next()
		}
		o.buildPath()
		keys = append(keys, &o)
	}
	college := func(o op) op { o.name, o.ds = collegeName, fx.college; return o }
	wiki := func(o op) op { o.name, o.ds = wikiName, fx.wiki; return o }

	for i := 0; i < 3; i++ {
		add(college(op{kind: server.KindCount}), "count")
	}
	shared := ds.next()
	add(college(op{kind: server.KindCount, delta: shared, motif: star[0]}), "count-motif")
	add(college(op{kind: server.KindCount, delta: shared, motif: star[len(star)-1]}), "count-motif")
	add(college(op{kind: server.KindCount, delta: shared, motif: tri[0]}), "count-motif")
	add(college(op{kind: server.KindCount, delta: shared, motif: tri[len(tri)-1]}), "count-motif")
	add(college(op{kind: server.KindCount, motif: star[1]}), "count-motif")
	for i := 0; i < 3; i++ {
		add(college(op{kind: server.KindStar4}), "star4")
		add(college(op{kind: server.KindPath4}), "path4")
	}
	for i := 0; i < 2; i++ {
		add(college(op{kind: server.KindQuery, spec: specTriangle}), "query-edge")
		add(college(op{kind: server.KindQuery, spec: specOutStar}), "query-center")
		add(college(op{kind: server.KindSig, samples: 8}), "sig")
		add(college(op{kind: server.KindStar4, eps: approxEpsilon}), "star4-approx")
		add(college(op{kind: server.KindPath4, eps: approxEpsilon}), "path4-approx")
	}
	add(college(op{kind: server.KindQuery, spec: specTriangle, eps: approxEpsilon}), "query-approx")
	// 25 so far; seven on the large dataset.
	add(wiki(op{kind: server.KindCount}), "count")
	add(wiki(op{kind: server.KindCount}), "count")
	add(wiki(op{kind: server.KindCount, motif: tri[1]}), "count-motif")
	add(wiki(op{kind: server.KindStar4}), "star4")
	add(wiki(op{kind: server.KindStar4}), "star4")
	add(wiki(op{kind: server.KindPath4}), "path4")
	add(wiki(op{kind: server.KindQuery, spec: specTriangle}), "query-edge")
	return keys
}

// response is the part of hared's JSON envelope the checks read.
type response struct {
	Dataset      string `json:"dataset"`
	DeltaSeconds int64  `json:"delta_seconds"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`

	Matrix map[string]uint64 `json:"matrix"`
	Motif  string            `json:"motif"`
	Count  *uint64           `json:"count"`

	Patterns map[string]uint64 `json:"patterns"`
	Paths    map[string]uint64 `json:"paths"`

	Spec  string `json:"spec"`
	Pivot string `json:"pivot"`

	Approx        bool     `json:"approx"`
	Estimate      *float64 `json:"estimate"`
	CILow         *float64 `json:"ci_low"`
	CIHigh        *float64 `json:"ci_high"`
	ApproxSamples int      `json:"approx_samples"`
	Intervals     map[string]struct {
		Estimate float64 `json:"estimate"`
		Low      float64 `json:"low"`
		High     float64 `json:"high"`
	} `json:"intervals"`

	Model   string `json:"model"`
	Samples int    `json:"samples"`
	Motifs  []struct {
		Label  string   `json:"label"`
		Real   uint64   `json:"real"`
		Mean   float64  `json:"mean"`
		Std    float64  `json:"std"`
		Z      *float64 `json:"z"`
		ZInf   string   `json:"z_inf"`
		PUpper float64  `json:"p_upper"`
		PLower float64  `json:"p_lower"`
	} `json:"motifs"`

	Total     uint64  `json:"total"`
	Workers   int     `json:"workers"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
}

// checkShape is the structural check every response gets: the request is
// echoed, the graph is the registered one, the cache state is the one the
// workload is built to produce, and the kind's own fields are present.
func checkShape(o *op, r *response, wantCached bool) error {
	switch {
	case r.Dataset != o.name || r.DeltaSeconds != o.delta:
		return fmt.Errorf("echoes dataset %q δ=%d", r.Dataset, r.DeltaSeconds)
	case o.ds != nil && (r.Nodes != o.ds.g.NumNodes() || r.Edges != o.ds.g.NumEdges()):
		return fmt.Errorf("graph is %d nodes/%d edges, fixture has %d/%d", r.Nodes, r.Edges, o.ds.g.NumNodes(), o.ds.g.NumEdges())
	case r.Cached != wantCached:
		return fmt.Errorf("cached=%v, want %v", r.Cached, wantCached)
	}
	if o.eps > 0 {
		if !r.Approx || r.Estimate == nil || r.CILow == nil || r.CIHigh == nil || r.ApproxSamples <= 0 {
			return fmt.Errorf("approx fields missing")
		}
		if !(*r.CILow <= *r.Estimate && *r.Estimate <= *r.CIHigh) {
			return fmt.Errorf("estimate %v outside its interval [%v, %v]", *r.Estimate, *r.CILow, *r.CIHigh)
		}
		return nil
	}
	switch o.kind {
	case server.KindCount:
		if len(r.Matrix) != 36 || (o.motif != "") != (r.Count != nil) {
			return fmt.Errorf("count fields missing")
		}
	case server.KindStar4:
		if len(r.Patterns) != 8 {
			return fmt.Errorf("%d star4 patterns, want 8", len(r.Patterns))
		}
	case server.KindPath4:
		if r.Paths == nil {
			return fmt.Errorf("paths missing")
		}
	case server.KindQuery:
		if r.Spec == "" || r.Pivot == "" {
			return fmt.Errorf("spec/pivot missing")
		}
	case server.KindSig:
		if len(r.Motifs) != 36 || r.Samples != o.samples {
			return fmt.Errorf("sig fields missing")
		}
	}
	return nil
}

// checkAnswer recomputes the answer with direct library calls on the
// generator's own copy of the graph and compares every number bit for
// bit. Served answers must not depend on workers, shards or caching.
func checkAnswer(o *op, r *response) error {
	g, d := o.ds.g, hare.Timestamp(o.delta)
	if o.eps > 0 {
		ao := hare.ApproxOptions{Epsilon: o.eps, Confidence: 0.95, Seed: o.seed, Samples: o.samples}
		var want *hare.ApproxResult
		var err error
		switch o.kind {
		case server.KindStar4:
			want, err = hare.CountStar4Approx(g, d, ao)
		case server.KindPath4:
			want, err = hare.CountPath4Approx(g, d, ao)
		default:
			var spec *hare.MotifSpec
			if spec, err = hare.ParseSpec(o.spec); err == nil {
				want, err = hare.CountMotifApprox(g, spec, d, ao)
			}
		}
		if err != nil {
			return err
		}
		if *r.Estimate != want.Total.Estimate || *r.CILow != want.Total.Low || *r.CIHigh != want.Total.High || r.ApproxSamples != want.Draws {
			return fmt.Errorf("estimate %v [%v, %v] in %d draws, library says %v [%v, %v] in %d",
				*r.Estimate, *r.CILow, *r.CIHigh, r.ApproxSamples, want.Total.Estimate, want.Total.Low, want.Total.High, want.Draws)
		}
		return nil
	}
	switch o.kind {
	case server.KindCount:
		var opts []hare.Option
		if o.motif != "" {
			opts = append(opts, hare.WithOnly(hare.MustLabel(o.motif).Category()))
		}
		res, err := hare.Count(g, d, opts...)
		if err != nil {
			return err
		}
		return matrixEqual(r.Matrix, r.Total, &res.Matrix, o.motif, r.Count)
	case server.KindStar4:
		want, err := hare.CountStar4(g, d)
		if err != nil {
			return err
		}
		for i, v := range want {
			d1, d2, d3 := motif.PairDirs(i)
			if got := r.Patterns[fmt.Sprintf("%s,%s,%s", d1, d2, d3)]; got != v {
				return fmt.Errorf("star4 pattern %d is %d, library says %d", i, got, v)
			}
		}
		if r.Total != want.Total() {
			return fmt.Errorf("star4 total %d, library says %d", r.Total, want.Total())
		}
	case server.KindPath4:
		want, err := hare.CountPath4(g, d)
		if err != nil {
			return err
		}
		labels := want.Labels()
		if len(labels) != len(r.Paths) || r.Total != want.Total() {
			return fmt.Errorf("path4 has %d labels total %d, library says %d total %d", len(r.Paths), r.Total, len(labels), want.Total())
		}
		for _, lc := range labels {
			if got := r.Paths[lc.Label.String()]; got != lc.Count {
				return fmt.Errorf("path4 %s is %d, library says %d", lc.Label, got, lc.Count)
			}
		}
	case server.KindQuery:
		spec, err := hare.ParseSpec(o.spec)
		if err != nil {
			return err
		}
		want, err := hare.CountMotif(g, spec, d)
		if err != nil {
			return err
		}
		if r.Total != want || r.Spec != spec.Canonical() {
			return fmt.Errorf("query %q = %d, library says %q = %d", r.Spec, r.Total, spec.Canonical(), want)
		}
	case server.KindSig:
		rep, err := hare.Significance(g, d, hare.SignificanceOptions{Model: hare.NullTimeShuffle, Trials: o.samples, Seed: o.seed})
		if err != nil {
			return err
		}
		for i, l := range hare.AllLabels() {
			m := r.Motifs[i]
			if m.Label != l.String() || m.Real != rep.Real.At(l) || m.Mean != rep.MeanAt(l) || m.Std != rep.StdAt(l) ||
				m.PUpper != rep.PUpperAt(l) || m.PLower != rep.PLowerAt(l) {
				return fmt.Errorf("sig %s differs from the library's report", l)
			}
			if z := rep.ZScore(l); !math.IsInf(z, 0) && (m.Z == nil || *m.Z != z) {
				return fmt.Errorf("sig %s z-score differs from the library's", l)
			}
		}
	}
	return nil
}

// matrixEqual compares a served 36-cell matrix with the library's.
func matrixEqual(got map[string]uint64, total uint64, want *hare.Matrix, only string, count *uint64) error {
	for _, l := range hare.AllLabels() {
		if got[l.String()] != want.At(l) {
			return fmt.Errorf("count %s is %d, library says %d", l, got[l.String()], want.At(l))
		}
	}
	if total != want.Total() {
		return fmt.Errorf("count total %d, library says %d", total, want.Total())
	}
	if only != "" && *count != want.At(hare.MustLabel(only)) {
		return fmt.Errorf("count of %s is %d, library says %d", only, *count, want.At(hare.MustLabel(only)))
	}
	return nil
}

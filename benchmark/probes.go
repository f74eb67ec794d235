package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"hare"
	"hare/internal/approx"
	"hare/internal/fast"
	"hare/internal/live"
	"hare/internal/motif"
	"hare/internal/query"
	"hare/internal/server"
	"hare/internal/shard"
	"hare/internal/stream"
	"hare/internal/temporal"
)

// The probes call one module's exported functions directly, each inside
// a "probe.<module>.<func>" span. Every timing is the median of a few
// repetitions; a traced run probes the modules on its workload's path.

const probeDelta = 600

// probe times f reps times inside spans and returns the median in ms.
func (b *bench) probe(name string, reps int, f func()) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		id := b.tr.begin("probe."+name, 0, 0)
		f()
		ms[i] = b.tr.end(id)
	}
	return median(ms)
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// batchExactTraced replays batch-exact's operations in-process — load
// the text file, count — and probes the loader and the two counting
// engines the way harecount drives them.
func (b *bench) batchExactTraced(ds *dataset, seq *deltas) error {
	var count []float64
	start := time.Now()
	for i := 1; time.Since(start) < b.window(); i++ {
		b.rep.Attempted++
		delta := seq.next()
		op := b.tr.begin("request", 0, i)
		ld := b.tr.begin("probe.temporal.LoadFile", op, i)
		g, err := hare.LoadFile(ds.text, hare.LoadOptions{})
		b.tr.end(ld)
		if err != nil {
			return err
		}
		ct := b.tr.begin("probe.engine.Count", op, i)
		res, err := hare.Count(g, hare.Timestamp(delta))
		b.tr.end(ct)
		b.tr.end(op)
		if err != nil {
			return err
		}
		count = append(count, float64(res.Elapsed)/1e6)
		if i == 1 {
			want, err := hare.Count(ds.g, hare.Timestamp(delta), hare.WithWorkers(1))
			if err != nil {
				return err
			}
			if !res.Matrix.Equal(&want.Matrix) {
				b.rep.Failed++
				b.fail("in-process count differs from the sequential count in cells %v", res.Matrix.Diff(&want.Matrix))
			}
		}
	}
	b.set("trace.ops_s", float64(len(count))/time.Since(start).Seconds())
	b.set("engine.count_ms_e2e", median(count))

	text, err := os.ReadFile(ds.text)
	if err != nil {
		return err
	}
	g := ds.g
	medges := float64(g.NumEdges()) / 1e6
	parse := func(workers int) func() {
		return func() {
			if _, err := temporal.ReadEdgeList(bytes.NewReader(text), temporal.LoadOptions{Workers: workers}); err != nil {
				panic(err) // the fixture was written by this process
			}
		}
	}
	b.set("temporal.parse_medges_s", medges/(b.probe("temporal.ReadEdgeList", 3, parse(0))/1e3))
	b.set("temporal.parse_seq_medges_s", medges/(b.probe("temporal.ReadEdgeList.seq", 3, parse(1))/1e3))
	b.set("temporal.load_allocs_per_edge", mallocs(parse(0))/float64(g.NumEdges()))
	edges := g.Edges()
	b.set("temporal.build_medges_s", medges/(b.probe("temporal.FromEdges", 3, func() { temporal.FromEdges(edges) })/1e3))

	seqMS := b.probe("fast.Count", 3, func() { fast.Count(g, probeDelta) })
	b.set("fast.seq_count_ms", seqMS)
	b.set("fast.allocs_per_center", mallocs(func() { fast.Count(g, probeDelta) })/float64(g.NumNodes()))
	workers := runtime.GOMAXPROCS(0)
	parMS := b.probe("engine.Count", 3, func() { hare.Count(g, probeDelta, hare.WithWorkers(workers)) })
	b.set("engine.par_count_ms", parMS)
	b.set("engine.scaling_eff", seqMS/(parMS*float64(workers)))
	b.detail("scaling_base", map[string]float64{"fast_seq_ms": seqMS, "engine_par_ms": parMS, "workers": float64(workers)})
	return nil
}

// goodOps is the set of op ids whose samples passed every check.
func goodOps(samples []sample) map[int]bool {
	good := make(map[int]bool)
	for _, s := range samples {
		if s.err == nil {
			good[s.op.id] = true
		}
	}
	return good
}

// serverSelf derives the server's own share of a miss from the spans:
// the handler's span less what its backend and loader spans cover, which
// leaves parsing, the cache, the admission queue and encoding.
func (b *bench) serverSelf(samples []sample) {
	good := goodOps(samples)
	st := b.tr.tree()
	var self []float64
	for i := range st.spans {
		s := &st.spans[i]
		if s.Name == "server.handle" && good[s.Op] && len(st.children[s.ID]) > 0 {
			self = append(self, st.selfMS(s))
		}
	}
	b.set("server.self_ms_p50", median(self))
}

// probeKernels times the kernels serve-cold's requests run, on the same
// hub-skewed graph.
func (b *bench) probeKernels(fx *fixtures) {
	g := fx.wiki.g
	b.set("engine.hub_count_ms", b.probe("engine.Count.hub", 3, func() { hare.Count(g, probeDelta) }))
	b.set("higher.star4_ms", b.probe("higher.CountStar4", 3, func() { hare.CountStar4(g, probeDelta) }))
	path4MS := b.probe("higher.CountPath4", 3, func() { hare.CountPath4(g, probeDelta) })
	b.set("higher.path4_ms", path4MS)

	tri, _ := query.ParseSpec(specTriangle)
	star, _ := query.ParseSpec(specOutStar)
	b.set("query.exec_edge_ms", b.probe("query.Execute.edge", 3, func() { query.Compile(tri).Execute(g, probeDelta, query.Options{}) }))
	b.set("query.exec_center_ms", b.probe("query.Execute.center", 3, func() { query.Compile(star).Execute(g, probeDelta, query.Options{}) }))

	ao := approx.Options{Epsilon: approxEpsilon}
	b.set("approx.plan_ms", b.probe("approx.NewPlan", 3, func() { approx.NewPlan(g, approx.PathKernel{}, ao) }))
	var draws int
	approxMS := b.probe("approx.Path4", 3, func() {
		if r, err := approx.Path4(g, probeDelta, ao); err == nil {
			draws = r.Draws
		}
	})
	b.set("approx.path4_ms", approxMS)
	b.set("approx.star4_ms", b.probe("approx.Star4", 3, func() { approx.Star4(g, probeDelta, ao) }))
	b.set("approx.draws", float64(draws))
	b.set("approx.speedup_vs_exact", path4MS/approxMS)
	b.detail("approx_speedup_base_exact_path4_ms", path4MS)

	// How often a 95% interval holds the exact count. A miss is the
	// estimator working as specified, not a failed operation. Each δ gets
	// its own sampling seed: one seed's pivots are the same at every δ,
	// so its hits and misses would come in threes.
	covered, total := 0, 0
	for i, d := range []temporal.Timestamp{450, 600, 750} {
		seeded := approx.Options{Epsilon: approxEpsilon, Seed: int64(i + 1)}
		s4, _ := hare.CountStar4(g, d)
		p4, _ := hare.CountPath4(g, d)
		for _, c := range []struct {
			exact uint64
			est   func() (*approx.Result, error)
		}{
			{s4.Total(), func() (*approx.Result, error) { return approx.Star4(g, d, seeded) }},
			{p4.Total(), func() (*approx.Result, error) { return approx.Path4(g, d, seeded) }},
		} {
			if r, err := c.est(); err == nil {
				total++
				if r.Total.Low <= float64(c.exact) && float64(c.exact) <= r.Total.High {
					covered++
				}
			}
		}
	}
	if total > 0 {
		b.set("approx.cover_ratio", float64(covered)/float64(total))
	}

	small := fx.college.g
	sampler := hare.NewNullSampler(small, hare.NullTimeShuffle)
	seed := int64(0)
	b.set("nullmodel.draw_ms", b.probe("nullmodel.Sampler.Sample", 5, func() { seed++; sampler.Sample(seed) }))
	b.set("nullmodel.ensemble_ms", b.probe("nullmodel.Significance", 3, func() {
		hare.Significance(small, probeDelta, hare.SignificanceOptions{Model: hare.NullTimeShuffle, Trials: 8, Seed: 1})
	}))
}

// probeServer measures the pieces of a cache hit one at a time: request
// parsing and keying, the cache lookup, and the whole handler on a warm
// key with no socket in the way.
func (b *bench) probeServer(fx *fixtures, keys []*op, topo topology) {
	type parsed struct {
		kind server.Kind
		q    url.Values
	}
	reqs := make([]parsed, len(keys))
	for i, k := range keys {
		u, _ := url.Parse(k.path)
		reqs[i] = parsed{k.kind, u.Query()}
	}
	const rounds = 200
	n := float64(rounds * len(keys))
	b.set("server.parse_us", 1e3*b.probe("server.ParseRequest", 3, func() {
		for r := 0; r < rounds; r++ {
			for _, p := range reqs {
				req, _, _ := server.ParseRequest(p.kind, p.q)
				_ = req.Key()
			}
		}
	})/n)

	cache := server.NewCache(1024)
	ctx := context.Background()
	compute := func(context.Context) (any, error) { return 1, nil }
	for _, k := range keys {
		cache.Do(ctx, k.path, compute)
	}
	b.set("server.cache_hit_us", 1e3*b.probe("server.Cache.Do", 3, func() {
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				cache.Do(ctx, k.path, compute)
			}
		}
	})/n)

	srv, err := hare.NewServer(hare.ServerOptions{})
	if err == nil {
		srv.RegisterGraph(wikiName, "probe", fx.wiki.g)
		srv.RegisterGraph(collegeName, "probe", fx.college.g)
		h := srv.Handler()
		hit := func(k *op) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, k.path, nil))
			return rec.Body.Len()
		}
		var bytesTotal int
		for _, k := range keys {
			hit(k) // fill the cache
			bytesTotal += hit(k)
		}
		all := func() {
			for _, k := range keys {
				hit(k)
			}
		}
		const hitRounds = 20
		b.set("server.handle_hit_us", 1e3*b.probe("server.Handler.hit", 3, func() {
			for r := 0; r < hitRounds; r++ {
				all()
			}
		})/float64(hitRounds*len(keys)))
		b.set("server.allocs_per_hit", mallocs(all)/float64(len(keys)))
		b.set("server.resp_bytes", float64(bytesTotal)/float64(len(keys)))
		perKind := make(map[string]map[string]float64)
		for _, k := range keys {
			if perKind[k.label] != nil {
				continue
			}
			k := k
			perKind[k.label] = map[string]float64{
				"handle_hit_us": 1e3 * b.probe("server.Handler.hit."+k.label, 3, func() {
					for r := 0; r < 50; r++ {
						hit(k)
					}
				}) / 50,
				"allocs":     mallocs(func() { hit(k) }),
				"resp_bytes": float64(hit(k)),
			}
		}
		b.detail("hit_by_kind", perKind)
	}

	specs := []string{specTriangle, specOutStar}
	b.set("query.compile_us", 1e3*b.probe("query.Compile", 3, func() {
		for r := 0; r < 1000; r++ {
			s, err := query.ParseSpec(specs[r%2])
			if err == nil {
				_ = s.Canonical()
				query.Compile(s)
			}
		}
	})/1000)

	for _, d := range topo.data {
		if d.name == wikiName {
			b.set("temporal.snapshot_load_ms", b.probe("temporal.LoadSnapshot", 5, func() { temporal.LoadSnapshot(d.path) }))
		}
	}
}

// probeLive measures the write path of a live dataset below the HTTP
// layer, and what a read pays right after a write: the O(E) rebuild of
// the graph snapshot, at two sizes.
func (b *bench) probeLive(src *dataset) {
	batch := b.cfg.sizes.liveBatch
	edges := src.g.Edges()
	nBatches := min(200, len(edges)/batch)
	if nBatches == 0 {
		return
	}
	if ctr, err := stream.NewSliding(probeDelta); err == nil {
		id := b.tr.begin("probe.stream.Counter.AddBatch", 0, 0)
		for i := 0; i < min(100, nBatches); i++ {
			ctr.AddBatch(edges[i*batch : (i+1)*batch])
		}
		ms := b.tr.end(id)
		b.set("stream.addbatch_kedges_s", float64(min(100, nBatches)*batch)/ms)
	}
	d, err := live.New("probe", live.Options{Delta: probeDelta})
	if err != nil {
		return
	}
	bodies := ingestBodies(src, batch)
	// A snapshot can be timed once per version, so each size is the median
	// over the five versions around it. The sizes are named for the full
	// run's 1000-edge batches.
	var ingest, snap100, snap200 []float64
	for i := 0; i < nBatches; i++ {
		ingest = append(ingest, b.probe("live.Dataset.IngestText", 1, func() { d.IngestText(bytes.NewReader(bodies[i])) }))
		switch n := i + 1; {
		case n >= 98 && n <= 102:
			snap100 = append(snap100, b.probe("live.Dataset.Graph", 1, func() { d.Graph() }))
		case n >= 196 && n <= 200:
			snap200 = append(snap200, b.probe("live.Dataset.Graph", 1, func() { d.Graph() }))
		}
	}
	b.set("live.snapshot_ms_100k", median(snap100))
	b.set("live.snapshot_ms_200k", median(snap200))
	b.set("live.ingest_batch_ms", median(ingest))
}

// shardSpans derives the scatter tier's own cost from the spans of the
// cluster replay: what the coordinator's backend span holds beyond its
// slowest worker, and how unevenly the ranges split the work.
func (b *bench) shardSpans(samples []sample) {
	good := goodOps(samples)
	st := b.tr.tree()
	var self, skew []float64
	for i := range st.spans {
		s := &st.spans[i]
		if !strings.HasPrefix(s.Name, "backend.") || !good[s.Op] {
			continue
		}
		var workers []float64
		st.descendants(s.ID, func(c *span) {
			if strings.HasPrefix(c.Name, "worker.") {
				workers = append(workers, c.ms())
			}
		})
		if len(workers) == 0 {
			continue
		}
		asc := sorted(workers)
		slowest := asc[len(asc)-1]
		self = append(self, s.ms()-slowest)
		if len(workers) > 1 && mean(workers) > 0 {
			skew = append(skew, slowest/mean(workers))
		}
	}
	b.set("shard.scatter_self_ms_p50", median(self))
	b.set("shard.worker_skew_ratio", median(skew))
	b.tr.mu.Lock()
	if b.tr.partials > 0 {
		b.set("shard.partial_bytes", float64(b.tr.partialBytes)/float64(b.tr.partials))
	}
	b.tr.mu.Unlock()
}

// shardCounters reads the coordinator's scatter counters from two
// /metrics scrapes.
func (b *bench) shardCounters(before, after map[string]float64) {
	reqs := delta(before, after, "hared_shard_requests_total")
	rtt := 0.0
	if reqs > 0 {
		rtt = 1e3 * delta(before, after, "hared_shard_latency_seconds_sum") / reqs
	}
	counters := map[string]float64{
		"shard.peer_rtt_ms_mean": rtt,
		"shard.retries":          delta(before, after, "hared_shard_retries_total"),
		"shard.hedges":           delta(before, after, "hared_shard_hedges_total"),
		"shard.failed_shards":    delta(before, after, "hared_shard_failed_shards_total"),
	}
	b.detail("shard_counters", counters)
	if b.tr != nil {
		for name, v := range counters {
			b.set(name, v)
		}
	}
}

// probeShard times the wire codec on the largest partial there is: the
// raw per-sample matrices of a sig sub-request.
func (b *bench) probeShard(fx *fixtures) {
	p := shard.Partial{Proto: shard.ProtoVersion, Kind: server.KindSig, Sig: make([]motif.Matrix, 8)}
	if res, err := hare.Count(fx.college.g, probeDelta); err == nil {
		for i := range p.Sig {
			p.Sig[i] = res.Matrix
		}
	}
	const rounds = 200
	b.set("shard.codec_us", 1e3*b.probe("shard.Partial.codec", 3, func() {
		for r := 0; r < rounds; r++ {
			data, err := json.Marshal(&p)
			var back shard.Partial
			if err == nil {
				err = json.Unmarshal(data, &back)
			}
			if err != nil {
				panic(fmt.Sprintf("shard partial does not round-trip: %v", err))
			}
		}
	})/rounds)
}

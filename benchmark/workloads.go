package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hare"
	"hare/internal/server"
)

// ---- shared steps ---------------------------------------------------

// serveFixtures generates the two serving datasets and writes each in
// the form the workload loads it from.
func (b *bench) serveFixtures(wikiSpec string, snapshots bool) (*fixtures, topology, error) {
	wiki, err := generate(wikiSpec)
	if err != nil {
		return nil, topology{}, err
	}
	college, err := generate(b.cfg.sizes.college)
	if err != nil {
		return nil, topology{}, err
	}
	fx := &fixtures{wiki: wiki, college: college}
	var topo topology
	for _, d := range []struct {
		name string
		ds   *dataset
	}{{wikiName, wiki}, {collegeName, college}} {
		if snapshots {
			err = b.env.writeSnapshot(d.ds)
			topo.data = append(topo.data, dataFlag{d.name, d.ds.snap})
		} else {
			err = b.env.writeText(d.ds)
			topo.data = append(topo.data, dataFlag{d.name, d.ds.text})
		}
		if err != nil {
			return nil, topology{}, err
		}
	}
	return fx, topo, nil
}

// setUp brings the topology to the state the measured window starts in:
// booted, datasets loaded, and warm if the workload has a warm-up. The
// untraced run does it several times over, in fresh processes each time,
// and reports the median as setup_s, so that work moved from requests
// into set-up shows; the last instance is the one measured. Cheap
// set-ups are repeated more often than dear ones.
func (b *bench) setUp(t topology, clients int, warm func(*client) error) (*sut, *client, error) {
	once := func(parent int) (*sut, *client, error) {
		var s *sut
		var err error
		if b.tr != nil {
			s, err = bootInProc(t, b.tr, parent)
		} else {
			s, err = b.env.bootProcs(t)
		}
		if err != nil {
			return nil, nil, err
		}
		c := newClient(s.url, clients, b.tr)
		if warm != nil {
			if err := warm(c); err != nil {
				c.close()
				s.stop()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, c, nil
	}
	if b.tr != nil {
		id := b.tr.begin("setup", 0, 0)
		defer b.tr.end(id)
		return once(id)
	}
	var times []float64
	reps := 3
	for i := 0; ; i++ {
		t0 := time.Now()
		s, c, err := once(0)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			reps = min(max(3, int(math.Ceil(2.5/times[0]))), max(b.cfg.sizes.setups, 1))
		}
		if i == reps-1 {
			b.set("setup_s", median(times))
			b.detail("setup_s_samples", times)
			return s, c, nil
		}
		c.close()
		s.stop()
	}
}

// latency reports throughput and latency percentiles of the operations
// that passed every check. The traced run reports only its throughput,
// so that tracing overhead can be read off against the untraced run.
func (b *bench) latency(ms []float64, elapsed time.Duration) {
	ops := float64(len(ms)) / elapsed.Seconds()
	if b.tr != nil {
		b.set("trace.ops_s", ops)
		return
	}
	asc := sorted(ms)
	b.set("ops_s", ops)
	b.set("p50_ms", percentile(asc, 50))
	b.set("p90_ms", percentile(asc, 90))
	b.detail("latency_ms", map[string]float64{
		"n": float64(len(asc)), "p25": percentile(asc, 25), "p50": percentile(asc, 50),
		"p75": percentile(asc, 75), "p90": percentile(asc, 90), "p99": percentile(asc, 99), "max": percentile(asc, 100),
	})
	b.detail("window_s", elapsed.Seconds())
}

// cpuOf sums the CPU time the live children have used so far.
func cpuOf(pids []int) float64 {
	var total float64
	for _, pid := range pids {
		ms, _ := pidCPUms(pid)
		total += ms
	}
	return total
}

// tearDown stops the topology and reports what its processes cost:
// CPU spent inside the measured window per good operation, and the sum
// of the processes' peak resident sets.
func (b *bench) tearDown(s *sut, c *client, windowCPUms float64, goodOps int) {
	c.close()
	var rss float64
	for _, pid := range s.pids {
		rss += peakRSSmb(pid)
	}
	s.stop()
	if b.tr != nil {
		return
	}
	b.set("peak_rss_mb", rss)
	b.set("cpu_ms_per_op", windowCPUms/math.Max(float64(goodOps), 1))
}

// tally counts the samples into the report and returns the latencies of
// the good ones.
func (b *bench) tally(samples []sample) []float64 {
	var ms []float64
	for _, s := range samples {
		b.rep.Attempted++
		if s.err != nil {
			b.rep.Failed++
			b.fail("op %d %s: %v", s.op.id, s.op.path, s.err)
			continue
		}
		ms = append(ms, s.ms)
	}
	return ms
}

// verifySample compares the marked operations with the library, after
// the window so that the generator's own counting never competes with
// the system under test.
func verifySample(samples []sample) (checked int) {
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.op.verify {
			s.err = checkAnswer(s.op, s.resp)
			checked++
		}
	}
	return checked
}

// bracket is what surrounds a serve workload's window: a GC in the
// generator, then a /metrics scrape and a CPU reading of the processes
// under test, both taken again when the window closes.
type bracket struct {
	s             *sut
	c             *client
	before, after map[string]float64
	cpuMS         float64 // CPU the processes spent inside the window
}

// openWindow starts a bracket; on error the topology is already stopped.
func openWindow(s *sut, c *client) (*bracket, error) {
	runtime.GC()
	before, err := c.scrape()
	if err != nil {
		c.close()
		s.stop()
		return nil, err
	}
	return &bracket{s: s, c: c, before: before, cpuMS: -cpuOf(s.pids)}, nil
}

// shut ends the CPU reading; call it the moment the window closes.
func (k *bracket) shut() { k.cpuMS += cpuOf(k.s.pids) }

// scrape takes the closing /metrics reading; on error the topology is
// already stopped.
func (k *bracket) scrape() (err error) {
	if k.after, err = k.c.scrape(); err != nil {
		k.c.close()
		k.s.stop()
	}
	return err
}

// serverCounters turns two /metrics scrapes into the per-layer counts
// every serve workload shares.
func (b *bench) serverCounters(before, after map[string]float64) {
	hits := delta(before, after, "hared_cache_hits_total")
	misses := delta(before, after, "hared_cache_misses_total")
	coalesced := delta(before, after, "hared_dedup_coalesced_total")
	b.detail("metrics_delta", map[string]float64{
		"cache_hits": hits, "cache_misses": misses, "coalesced": coalesced,
		"admission_waits": delta(before, after, "hared_admission_waits_total"),
		"dataset_loads":   after["hared_dataset_loads_total"],
		"cache_entries":   after["hared_cache_entries"],
	})
	if b.tr == nil {
		return
	}
	if total := hits + misses + coalesced; total > 0 {
		b.set("server.cache_hit_ratio", hits/total)
	}
	b.set("server.coalesced", coalesced)
	b.set("server.admission_waits", delta(before, after, "hared_admission_waits_total"))
	b.set("server.dataset_loads", after["hared_dataset_loads_total"])
}

// byLabel summarises good samples per request shape, for the report.
func byLabel(samples []sample) map[string]map[string]float64 {
	groups := make(map[string][]float64)
	for _, s := range samples {
		if s.err == nil {
			groups[s.op.label] = append(groups[s.op.label], s.ms)
		}
	}
	out := make(map[string]map[string]float64)
	for l, ms := range groups {
		out[l] = map[string]float64{"n": float64(len(ms)), "p50_ms": median(ms)}
	}
	return out
}

// missWorkload is the body serve-cold and cluster-scatter share: boot,
// drain a list of distinct-key requests in a closed loop, tear down,
// verify.
func (b *bench) missWorkload(t topology, fx *fixtures, mix []mixEntry, clients, workers int) ([]sample, error) {
	// 40 blocks are 800 requests, far more than a window holds.
	list := buildList(b.cfg.seed, mix, 40, fx, workers)
	s, c, err := b.setUp(t, clients, nil)
	if err != nil {
		return nil, err
	}
	w, err := openWindow(s, c)
	if err != nil {
		return nil, err
	}
	samples, elapsed := c.drain(list, clients, b.window(), func(o *op, r *response) error { return checkShape(o, r, false) })
	w.shut()
	if err := w.scrape(); err != nil {
		return nil, err
	}
	checked := verifySample(samples)
	ms := b.tally(samples)
	b.tearDown(s, c, w.cpuMS, len(ms))
	b.latency(ms, elapsed)
	b.serverCounters(w.before, w.after)
	if t.cluster {
		b.shardCounters(w.before, w.after)
	}
	b.detail("verified_against_library", checked)
	b.detail("by_kind", byLabel(samples))

	var waits []float64
	for _, sm := range samples {
		if sm.err == nil {
			waits = append(waits, sm.ms-sm.resp.ElapsedMS)
		}
	}
	b.detail("queue_wait_ms_p50", median(waits))
	if b.tr != nil {
		b.set("server.queue_wait_ms_p50", median(waits))
	}
	return samples, nil
}

// ---- batch-exact ----------------------------------------------------

var countedRE = regexp.MustCompile(`(?m)^counted in (\S+) with (\d+) workers$`)

// parseMatrix reads the 6×6 grid harecount prints.
func parseMatrix(out string) (hare.Matrix, error) {
	var m hare.Matrix
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || !strings.HasPrefix(f[0], "i=") {
			continue
		}
		i, err := strconv.Atoi(f[0][2:])
		if err != nil || i < 1 || i > 6 {
			return m, fmt.Errorf("bad row %q", line)
		}
		for j := 0; j < 6; j++ {
			if m[i-1][j], err = strconv.ParseUint(f[j+1], 10, 64); err != nil {
				return m, fmt.Errorf("bad cell in %q", line)
			}
		}
		rows++
	}
	if rows != 6 {
		return m, fmt.Errorf("%d matrix rows, want 6", rows)
	}
	return m, nil
}

// batchExact is the paper's own experiment: one harecount process per
// operation loads a text edge list and counts all 36 motifs exactly.
func (b *bench) batchExact() error {
	ds, err := generate(b.cfg.sizes.reddit)
	if err != nil {
		return err
	}
	if err := b.env.writeText(ds); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	seq := newDeltas(rng, 570, 630)
	verifyPhase := rng.Intn(8)
	if b.tr != nil {
		return b.batchExactTraced(ds, seq)
	}

	type run struct {
		delta           int64
		wallMS, countMS float64
		cpuMS, rssMB    float64
		matrix          hare.Matrix
		err             error
	}
	var runs []run
	runtime.GC()
	start := time.Now()
	for i := 0; time.Since(start) < b.window(); i++ {
		r := run{delta: seq.next()}
		cmd := exec.Command(b.env.bin("harecount"), "-input", ds.text, "-delta", strconv.FormatInt(r.delta, 10))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Start()
		if err == nil {
			// The process's peak memory is polled while it lives (see
			// peakRSSmb); it settles once the graph is built.
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			poll := time.NewTicker(5 * time.Millisecond)
			for running := true; running; {
				select {
				case err = <-exited:
					running = false
				case <-poll.C:
					r.rssMB = max(r.rssMB, peakRSSmb(cmd.Process.Pid))
				}
			}
			poll.Stop()
		}
		r.wallMS = float64(time.Since(t0)) / 1e6
		if cmd.ProcessState != nil {
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				r.cpuMS = rusageCPUms(ru)
			}
		}
		out := stdout.String()
		switch m := countedRE.FindStringSubmatch(out); {
		case err != nil:
			r.err = fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
		case m == nil:
			r.err = fmt.Errorf("no \"counted in\" line in the output")
		default:
			d, perr := time.ParseDuration(m[1])
			r.countMS = float64(d) / 1e6
			if r.matrix, err = parseMatrix(out); err != nil || perr != nil {
				r.err = fmt.Errorf("unreadable output: %v %v", err, perr)
			}
		}
		runs = append(runs, r)
	}
	elapsed := time.Since(start)

	// The first run and a seeded one in eight are recounted by the plain
	// sequential algorithm, FAST on one thread.
	checked := 0
	for i := range runs {
		r := &runs[i]
		if r.err != nil || (i != 0 && (i+verifyPhase)%8 != 0) {
			continue
		}
		want, err := hare.Count(ds.g, hare.Timestamp(r.delta), hare.WithWorkers(1))
		if err != nil {
			return err
		}
		checked++
		if !r.matrix.Equal(&want.Matrix) {
			r.err = fmt.Errorf("matrix differs from the sequential count in cells %v", r.matrix.Diff(&want.Matrix))
		}
	}
	var wall, setup, count, cpu, rss []float64
	for i, r := range runs {
		b.rep.Attempted++
		if r.err != nil {
			b.rep.Failed++
			b.fail("harecount run %d (δ=%d): %v", i, r.delta, r.err)
			continue
		}
		wall = append(wall, r.wallMS)
		setup = append(setup, (r.wallMS-r.countMS)/1e3)
		count = append(count, r.countMS)
		cpu = append(cpu, r.cpuMS)
		rss = append(rss, r.rssMB)
	}
	if len(wall) == 0 {
		return fmt.Errorf("no harecount run succeeded: %v", b.rep.Failures)
	}
	b.latency(wall, elapsed)
	// Start, load and CSR build: everything before the count.
	b.set("setup_s", median(setup))
	b.set("cpu_ms_per_op", mean(cpu))
	// One process at a time, so the peak is one process's.
	b.set("peak_rss_mb", median(rss))
	b.detail("count_ms_p50", median(count))
	b.detail("verified_against_library", checked)
	return nil
}

// ---- serve-cold -----------------------------------------------------

// serveCold drains distinct-key requests from two clients: every request
// misses the cache and runs a kernel, and with the default admission
// weight the second client queues behind the first.
func (b *bench) serveCold() error {
	fx, topo, err := b.serveFixtures(b.cfg.sizes.wiki, false)
	if err != nil {
		return err
	}
	samples, err := b.missWorkload(topo, fx, coldMix, 2, 0)
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.serverSelf(samples)
		b.probeKernels(fx)
	}
	return nil
}

// ---- serve-hot ------------------------------------------------------

// serveHot issues requests from a warmed 32-key set: every one is a
// cache hit, so the server's own code does all the work and the kernels
// none.
func (b *bench) serveHot() error {
	fx, topo, err := b.serveFixtures(b.cfg.sizes.wiki, true)
	if err != nil {
		return err
	}
	keys := hotKeys(b.cfg.seed, fx)
	warm := func(c *client) error {
		for _, k := range keys {
			if _, err := c.do(http.MethodGet, k.path, nil, 0); err != nil {
				return fmt.Errorf("%s: %w", k.path, err)
			}
		}
		return nil
	}
	// One client: with two, generator and server together oversubscribe
	// a 2-CPU box, which triples the run-to-run spread of every timing.
	const clients = 1
	s, c, err := b.setUp(topo, clients, warm)
	if err != nil {
		return err
	}
	// Every key's hit is checked against the library once; a hit's body
	// never changes, so the window compares bytes.
	want := make([][]byte, len(keys))
	for i, k := range keys {
		b.rep.Attempted++
		body, err := c.do(http.MethodGet, k.path, nil, 0)
		if err == nil {
			var r response
			if err = json.Unmarshal(body, &r); err == nil {
				if err = checkShape(k, &r, true); err == nil {
					err = checkAnswer(k, &r)
				}
			}
		}
		if err != nil {
			b.rep.Failed++
			b.fail("hot key %d %s: %v", k.id, k.path, err)
		}
		want[i] = body
	}
	w, err := openWindow(s, c)
	if err != nil {
		return err
	}
	type tallyT struct {
		ms     []float64
		failed int
		first  error
	}
	out := make([]tallyT, clients)
	start := time.Now()
	deadline := start.Add(b.window())
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.cfg.seed*1000 + int64(i)))
			t := &out[i]
			for n := 0; time.Now().Before(deadline); n++ {
				k := rng.Intn(len(keys))
				t0 := time.Now()
				body, err := c.do(http.MethodGet, keys[k].path, nil, 1+n*clients+i)
				ms := float64(time.Since(t0)) / 1e6
				if err == nil && !bytes.Equal(body, want[k]) {
					err = fmt.Errorf("%s: body differs from the verified hit", keys[k].path)
				}
				if err != nil {
					t.failed++
					if t.first == nil {
						t.first = err
					}
					continue
				}
				t.ms = append(t.ms, ms)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	w.shut()
	if err := w.scrape(); err != nil {
		return err
	}
	var ms []float64
	for _, t := range out {
		ms = append(ms, t.ms...)
		b.rep.Attempted += len(t.ms) + t.failed
		b.rep.Failed += t.failed
		if t.first != nil {
			b.fail("%v", t.first)
		}
	}
	b.tearDown(s, c, w.cpuMS, len(ms))
	b.latency(ms, elapsed)
	b.serverCounters(w.before, w.after)
	if b.tr != nil {
		b.set("server.hot_p99_ms", percentile(sorted(ms), 99))
		b.probeServer(fx, keys, topo)
	}
	return nil
}

// ---- serve-live -----------------------------------------------------

// serveLive reads a live dataset while a writer appends to it at a fixed
// rate. The writer's schedule fixes the graph's size as a function of
// time, so read latency compares across commits whatever ingest costs.
func (b *bench) serveLive() error {
	sz := b.cfg.sizes
	src, err := generate(sz.wiki)
	if err != nil {
		return err
	}
	bodies := ingestBodies(src, sz.liveBatch)
	edges := src.g.Edges()
	const name = "ev"
	every := time.Duration(sz.liveEvery) * time.Millisecond
	// Set-up gives the dataset a history, as fast as the server takes it:
	// the window then reads a graph that grows from a known size, not
	// from nothing, which keeps the latencies of one run comparable.
	prefill := min(sz.livePrefill, len(bodies)/2)
	warm := func(c *client) error {
		if got := c.writeOpenLoop(name, bodies[:prefill], 0, 0, time.Hour, 1_000_000); len(got) != prefill || got[prefill-1].err != nil {
			return fmt.Errorf("prefill stopped after %d of %d batches", len(got), prefill)
		}
		return nil
	}
	s, c, err := b.setUp(topology{live: name}, 2, warm)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	seq := newDeltas(rng, 300, 900)
	verifyPhase := rng.Intn(16)

	w, err := openWindow(s, c)
	if err != nil {
		return err
	}
	start := time.Now()
	var ingests []ingestSample
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ingests = c.writeOpenLoop(name, bodies[prefill:], prefill, every, b.window(), 2_000_000)
	}()
	// The reader waits for each reply before it asks again, alternating
	// the two kinds; every δ is new, so with the version in the cache key
	// every read misses and rebuilds the graph snapshot after an ingest.
	var reads []sample
	shape := func(o *op, r *response) error { return checkShape(o, r, false) }
	writing := func() bool {
		select {
		case <-writerDone:
			return false
		default:
			return true
		}
	}
	for i := 0; writing(); i++ {
		o := &op{id: i + 1, kind: server.KindCount, label: "count", name: name, delta: seq.next()}
		if i%2 == 1 {
			o.kind, o.label = server.KindStar4, "star4"
		}
		o.verify = (i+verifyPhase)%16 == 0 // one in 16: each check rebuilds a graph
		o.buildPath()
		reads = append(reads, c.one(o, shape))
	}
	<-writerDone
	elapsed := time.Since(start)
	w.shut()
	// The last word: a count over everything the writer got in.
	final := &op{id: len(reads) + 1, kind: server.KindCount, label: "final-count", name: name, delta: 600, verify: true}
	final.buildPath()
	last := c.one(final, shape)
	if last.err == nil && last.resp.Edges != min((prefill+len(ingests))*sz.liveBatch, len(edges)) {
		last.err = fmt.Errorf("final graph has %d edges, %d batches went in", last.resp.Edges, len(ingests))
	}
	if err := w.scrape(); err != nil {
		return err
	}
	// A live answer is checked against the library's count on the prefix
	// of the stream it saw; the response says how long that prefix was.
	checked := 0
	verify := func(sm *sample) {
		if sm.err != nil || !sm.op.verify || sm.resp.Edges == 0 || sm.resp.Edges > len(edges) {
			return
		}
		sm.op.ds = &dataset{g: hare.FromEdges(edges[:sm.resp.Edges])}
		if sm.err = checkShape(sm.op, sm.resp, false); sm.err == nil {
			sm.err = checkAnswer(sm.op, sm.resp)
		}
		checked++
	}
	if src.g.SelfLoopsDropped() == 0 { // else a prefix's edge count is not its length
		for i := range reads {
			verify(&reads[i])
		}
		verify(&last)
	}
	ms := b.tally(reads)
	b.tally([]sample{last})
	var acks, late []float64
	for i, in := range ingests {
		b.rep.Attempted++
		if in.err != nil {
			b.rep.Failed++
			b.fail("ingest batch %d: %v", i, in.err)
			continue
		}
		acks = append(acks, in.ms)
		if in.late > 10 {
			late = append(late, in.late)
		}
	}
	b.tearDown(s, c, w.cpuMS, len(ms))
	b.latency(ms, elapsed)
	b.serverCounters(w.before, w.after)
	lateRatio := float64(len(late)) / math.Max(float64(len(ingests)), 1)
	b.detail("ingest", map[string]float64{
		"prefill_batches": float64(prefill), "batches": float64(len(ingests)), "edges": float64((prefill + len(ingests)) * sz.liveBatch),
		"ack_ms_p50": median(acks), "ack_ms_p90": percentile(sorted(acks), 90), "late_ratio": lateRatio,
	})
	b.detail("verified_against_library", checked)
	b.detail("by_kind", byLabel(reads))
	if b.tr != nil {
		b.set("ingest_p50_ms", median(acks))
		b.set("loadgen.late_ratio", lateRatio)
		b.probeLive(src)
	}
	return nil
}

// ---- cluster-scatter ------------------------------------------------

// clusterScatter sends the serving kinds through a coordinator that
// splits each across two workers; workers=1 pins every shard's share to
// one thread, so that two workers fit two cores.
func (b *bench) clusterScatter() error {
	fx, topo, err := b.serveFixtures(b.cfg.sizes.wikiCluster, true)
	if err != nil {
		return err
	}
	topo.cluster = true
	if b.tr == nil {
		_, err = b.missWorkload(topo, fx, clusterMix, 1, 1)
		return err
	}
	// The traced run spends half its window on the same list against one
	// local node, the base of shard.speedup_vs_local, and half on the
	// cluster, whose numbers are the ones kept.
	b.cfg.seconds /= 2
	local := topo
	local.cluster = false
	if _, err = b.missWorkload(local, fx, clusterMix, 1, 1); err != nil {
		return err
	}
	localOps := b.values["trace.ops_s"]
	samples, err := b.missWorkload(topo, fx, clusterMix, 1, 1)
	if err != nil {
		return err
	}
	if localOps > 0 {
		b.set("shard.speedup_vs_local", b.values["trace.ops_s"]/localOps)
		b.detail("speedup_base_local_ops_s", localOps)
	}
	b.shardSpans(samples)
	b.probeShard(fx)
	return nil
}

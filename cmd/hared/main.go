// Command hared is the HARE query daemon: a long-lived HTTP service that
// loads each named dataset once, shares the immutable graph across
// requests, caches results in an LRU keyed by canonicalized request with
// singleflight deduplication, and bounds concurrent counting jobs with a
// worker-budget admission controller.
//
// Usage:
//
//	hared -listen :8315 -data wiki=wiki.txt.gz -data sms=sms.txt
//	hared -listen :8315 -data wiki=wiki.hare    # binary snapshot, mmapped
//	hared -listen :8315 -gen collegemsg:0.2 -gen wikitalk:0.05
//	hared -listen :8315 -live events:600          # mutable live dataset
//	hared -version
//
// Scale-out (docs/SHARDING.md): workers expose the shard wire protocol
// next to the public API; a coordinator scatters each query across its
// -peers and gathers the exact single-node answer:
//
//	hared -role worker -listen :8316 -gen wikitalk:0.05
//	hared -role worker -listen :8317 -gen wikitalk:0.05
//	hared -role coordinator -listen :8315 -gen wikitalk:0.05 \
//	      -peers localhost:8316,localhost:8317
//
// Dataset files may be text edge lists (".gz" transparent) or binary
// `.hare` snapshots (see docs/FORMAT.md) which load without parsing; a
// text path automatically prefers a "<path>.hare" sibling snapshot when
// one exists, including under -preload.
//
// Endpoints (GET unless noted, JSON):
//
//	/v1/count?dataset=wiki&delta=600[&motif=M26][&workers=4][&thrd=100]
//	/v1/star4?dataset=wiki&delta=600      4-node star motifs
//	/v1/path4?dataset=wiki&delta=600      4-node path motifs
//	/v1/sig?dataset=wiki&delta=600&model=time-shuffle&samples=20&seed=1
//	/v1/ingest?dataset=events             POST a text edge list to a -live dataset
//	/v1/watch?dataset=events[&motif=M65][&z=4]   SSE significance alerts
//	/v1/datasets                          registered datasets
//	/healthz                              liveness + version
//	/metrics                              Prometheus text metrics
//
// Live datasets (-live name[:delta], docs/LIVE.md) are mutable: every
// accepted /v1/ingest batch advances a monotonic version, cached query
// results are keyed on it (stale answers die on append), and /v1/watch
// streams z-score alerts when sliding-window motif counts spike against
// their trailing baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hare"
	"hare/internal/buildinfo"
	"hare/internal/gen"
	"hare/internal/shard"
)

// repeatable collects every occurrence of a repeatable string flag.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var dataFlags, genFlags, liveFlags repeatable
	var (
		listen    = flag.String("listen", ":8315", "listen address")
		cacheSize = flag.Int("cache", 1024, "result-cache capacity in entries (negative = disable)")
		budget    = flag.Int("budget", 0, "admission worker budget (0 = all CPUs)")
		maxGraphs = flag.Int("max-graphs", 0, "max resident dataset graphs, LRU-evicted beyond (0 = unbounded)")
		relabel   = flag.Bool("relabel", false, "relabel arbitrary node ids in -data files to a dense space")
		comma     = flag.Bool("comma", false, "treat commas as field separators in -data files")
		loadW     = flag.Int("load-workers", 0, "parallel ingestion workers per dataset load (0 = all CPUs)")
		preload   = flag.Bool("preload", false, "load every dataset at startup instead of on first request")
		version   = flag.Bool("version", false, "print version and exit")

		role         = flag.String("role", "single", `cluster role: "single", "coordinator" or "worker" (docs/SHARDING.md)`)
		peers        = flag.String("peers", "", "comma-separated worker base URLs (coordinator only)")
		shardTimeout = flag.Duration("shard-timeout", 30*time.Second, "per-attempt timeout for one shard sub-request (coordinator only)")
		shardRetries = flag.Int("shard-retries", 2, "retries per failed shard sub-request, rotating peers (coordinator only)")
		shardBackoff = flag.Duration("shard-backoff", 50*time.Millisecond, "initial retry backoff, doubling per attempt (coordinator only)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "duplicate a straggling shard onto the next peer after this delay, 0 = off (coordinator only)")
	)
	flag.Var(&dataFlags, "data", "dataset as name=path (edge list, .gz, or .hare snapshot; repeatable)")
	flag.Var(&genFlags, "gen", "synthetic dataset as name[:scale] from the built-in suite (repeatable)")
	flag.Var(&liveFlags, "live", "mutable live dataset as name[:delta] fed by /v1/ingest (delta = sliding watch window, default 600; repeatable)")
	flag.Parse()
	if *version {
		fmt.Println("hared", buildinfo.Version())
		return
	}
	if len(dataFlags) == 0 && len(genFlags) == 0 && len(liveFlags) == 0 {
		usageErr("at least one -data, -gen or -live dataset is required")
	}
	if *loadW < 0 {
		usageErr("-load-workers must be >= 0 (got %d; 0 = all CPUs)", *loadW)
	}
	if *budget < 0 {
		usageErr("-budget must be >= 0 (got %d; 0 = all CPUs)", *budget)
	}
	if *maxGraphs < 0 {
		usageErr("-max-graphs must be >= 0 (got %d; 0 = unbounded)", *maxGraphs)
	}
	if *role != "single" && *role != "coordinator" && *role != "worker" {
		usageErr(`-role must be "single", "coordinator" or "worker" (got %q)`, *role)
	}
	if (*peers != "") != (*role == "coordinator") {
		usageErr("-peers is required for -role coordinator and meaningless otherwise")
	}
	if *shardRetries < 0 {
		usageErr("-shard-retries must be >= 0 (got %d)", *shardRetries)
	}

	opts := hare.ServerOptions{
		CacheSize:       *cacheSize,
		WorkerBudget:    *budget,
		MaxLoadedGraphs: *maxGraphs,
		Version:         buildinfo.Version(),
		Role:            *role,
	}
	// A single node counts with the one-range in-process coordinator
	// (hare.NewServer's default); a coordinator gives it the fleet to
	// scatter across. Caching and admission stay on this side either way.
	var shardClient *shard.Client
	if *role == "coordinator" {
		pol := shard.Policy{
			Timeout:    *shardTimeout,
			Retries:    *shardRetries,
			Backoff:    *shardBackoff,
			HedgeAfter: *hedgeAfter,
		}
		if *shardRetries == 0 {
			pol.Retries = -1 // Policy treats 0 as "default"; the flag means none
		}
		var err error
		shardClient, err = shard.NewClient(strings.Split(*peers, ","), pol, nil)
		if err != nil {
			usageErr("-peers: %v", err)
		}
		opts.Backend = shard.NewCoordinator(shardClient)
	}
	srv, err := hare.NewServer(opts)
	if err != nil {
		log.Fatalf("hared: %v", err)
	}
	loadOpts := hare.LoadOptions{Relabel: *relabel, Comma: *comma, Workers: *loadW}
	var names []string
	for _, d := range dataFlags {
		name, path, ok := strings.Cut(d, "=")
		if !ok || name == "" || path == "" {
			usageErr("-data must be name=path (got %q)", d)
		}
		if _, err := os.Stat(path); err != nil {
			usageErr("-data %s: %v", name, err)
		}
		// FileLoader prefers a "<path>.hare" sibling snapshot (mmapped,
		// zero-parse) when one exists, and falls back to text — logged —
		// when a snapshot is corrupt or from a newer format version. The
		// sourced registration surfaces which branch won via /v1/datasets.
		if err := srv.RegisterSourced(name, "graph file "+path, hare.FileLoader(path, loadOpts, log.Printf)); err != nil {
			usageErr("%v", err)
		}
		names = append(names, name)
	}
	for _, spec := range genFlags {
		name, cfg, err := genConfig(spec)
		if err != nil {
			usageErr("-gen %s: %v", spec, err)
		}
		c := cfg
		if err := srv.RegisterSourced(name, fmt.Sprintf("synthetic %s (%d nodes, %d edges)", cfg.Name, cfg.Nodes, cfg.Edges),
			func() (*hare.Graph, string, error) { g, err := gen.Generate(c); return g, "synthetic", err }); err != nil {
			usageErr("%v", err)
		}
		names = append(names, name)
	}
	for _, spec := range liveFlags {
		name, delta, err := liveConfig(spec)
		if err != nil {
			usageErr("-live %s: %v", spec, err)
		}
		d, err := hare.NewLiveDataset(name, hare.LiveOptions{Delta: delta})
		if err != nil {
			usageErr("-live %s: %v", spec, err)
		}
		if err := srv.RegisterLive(d, fmt.Sprintf("live dataset (delta %d)", delta)); err != nil {
			usageErr("%v", err)
		}
		names = append(names, name)
	}
	if *preload {
		for _, name := range names {
			t0 := time.Now()
			g, err := srv.Preload(name)
			if err != nil {
				log.Fatalf("hared: preload %s: %v", name, err)
			}
			log.Printf("loaded %s: %d nodes, %d edges in %v", name, g.NumNodes(), g.NumEdges(), time.Since(t0).Round(time.Millisecond))
		}
	}

	handler := srv.Handler()
	switch *role {
	case "worker":
		// A worker serves the shard wire protocol next to the public API,
		// sharing its registry, and computes each range as a single node
		// computes its one range.
		w := &shard.Worker{Graphs: srv, Version: buildinfo.Version()}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle(shard.PathCompute, w.Handler())
		mux.Handle(shard.PathInfo, w.Handler())
		handler = mux
	case "coordinator":
		// Append the scatter-side shard metrics to the service /metrics
		// page so one scrape covers both layers.
		inner := handler
		mux := http.NewServeMux()
		mux.Handle("/", inner)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(w, r)
			shardClient.Metrics().Write(w)
		})
		handler = mux
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("hared: %v", err)
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		// The resolved address matters when -listen used port 0 (tests,
		// supervisors): it is the only place the real port appears.
		log.Printf("hared %s (%s) listening on %s with %d dataset(s): %s",
			buildinfo.Version(), *role, ln.Addr(), len(names), strings.Join(names, ", "))
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("hared: %v", err)
		}
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("hared: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("hared: shutdown: %v", err)
	}
}

// genConfig parses a -gen spec "name[:scale]" into a scaled dataset config.
// The registered name is the spec itself: "-gen wikitalk" serves as plain
// "wikitalk", "-gen wikitalk:0.05" as "wikitalk:0.05" — so a scaled graph
// is never mistaken for the full dataset and several scales of one
// generator can be served side by side.
func genConfig(spec string) (string, gen.Config, error) {
	name, scaleStr, hasScale := strings.Cut(spec, ":")
	cfg, err := gen.DatasetByName(name)
	if err != nil {
		return "", gen.Config{}, err
	}
	if !hasScale {
		return name, cfg, nil
	}
	scale, err := strconv.ParseFloat(scaleStr, 64)
	if err != nil || scale <= 0 {
		return "", gen.Config{}, fmt.Errorf("scale must be a positive number (got %q)", scaleStr)
	}
	return spec, gen.Scaled(cfg, scale), nil
}

// liveConfig parses a -live spec "name[:delta]". Unlike -gen, the
// registered name excludes the delta suffix: the window is a property of
// the dataset's watch pipeline, not its identity, and clients ingest by
// plain name.
func liveConfig(spec string) (string, hare.Timestamp, error) {
	name, deltaStr, hasDelta := strings.Cut(spec, ":")
	if name == "" {
		return "", 0, fmt.Errorf("empty dataset name")
	}
	if !hasDelta {
		return name, 600, nil
	}
	delta, err := strconv.ParseInt(deltaStr, 10, 64)
	if err != nil || delta < 0 {
		return "", 0, fmt.Errorf("delta must be a non-negative integer (got %q)", deltaStr)
	}
	return name, hare.Timestamp(delta), nil
}

// usageErr reports a flag-validation failure with usage text and exits 2.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hared: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

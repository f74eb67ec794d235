package hare

import (
	"hare/internal/live"
	"hare/internal/server"
	"hare/internal/shard"
)

// Server is the hared concurrent query service: a graph registry (each
// named dataset loaded once and shared immutably across requests), an LRU
// result cache with singleflight deduplication keyed by canonicalized
// request, and a weighted-semaphore admission controller bounding the
// worker budget of concurrent counting jobs. Construct with NewServer,
// register datasets, then serve Handler with net/http:
//
//	srv, _ := hare.NewServer(hare.ServerOptions{})
//	srv.Register("wiki", "wikitalk edges", func() (*hare.Graph, error) {
//		return hare.LoadFile("wiki.txt.gz", hare.LoadOptions{})
//	})
//	http.ListenAndServe(":8315", srv.Handler())
type Server = server.Server

// ServerOptions configures NewServer. Leave Backend nil to count in process
// (LocalBackend), the default; a cluster coordinator sets a shard
// coordinator over its worker fleet instead.
type ServerOptions = server.Options

// QueryRequest is the canonical form of one service query; the HTTP
// handlers, the result cache and client generators all share it.
type QueryRequest = server.Request

// QueryKind names a query family (one per /v1 endpoint).
type QueryKind = server.Kind

// Query kinds.
const (
	QueryCount = server.KindCount
	QueryStar4 = server.KindStar4
	QueryPath4 = server.KindPath4
	QuerySig   = server.KindSig
)

// DatasetInfo describes one registered dataset, as listed by /v1/datasets.
type DatasetInfo = server.DatasetInfo

// LiveDataset is a named mutable dataset: an appendable edge log with an
// exact online sliding-window motif counter, a monotonic version advancing
// per accepted ingest batch, and a z-score watch pipeline over the window
// counts. Create with NewLiveDataset, register with Server.RegisterLive,
// feed through POST /v1/ingest and watch through GET /v1/watch
// (docs/LIVE.md).
type LiveDataset = live.Dataset

// LiveOptions configures NewLiveDataset.
type LiveOptions = live.Options

// LiveAlert is one significance alert emitted by a live dataset's watch
// pipeline: a motif whose sliding-window count crossed the trailing
// ensemble z-score threshold.
type LiveAlert = live.Alert

// LiveIngestResult reports one accepted ingest batch.
type LiveIngestResult = live.IngestResult

// NewLiveDataset returns an empty live dataset at version 1.
func NewLiveDataset(name string, opts LiveOptions) (*LiveDataset, error) {
	return live.New(name, opts)
}

// FileLoader returns a dataset loader for Server.Register that wires
// .hare snapshots into the registry: a text path prefers a "<path>.hare"
// sibling snapshot when present (falling back to the text file, logged,
// if the snapshot is corrupt or from a newer format version), and a
// ".hare" path loads the snapshot directly, falling back to a text
// sibling only when the snapshot's format version is newer than this
// binary supports. logf (nil to discard) receives the fallback log lines;
// opts applies to text parsing only. The loader also reports which branch
// produced the graph ("snapshot <path>", "snapshot-sibling <snap>",
// "text <path>", "text-fallback <cand>") — register it with
// Server.RegisterSourced and /v1/datasets shows the provenance.
func FileLoader(path string, opts LoadOptions, logf func(format string, args ...any)) func() (*Graph, string, error) {
	return server.FileLoader(path, opts, logf)
}

// NewServer returns a query service. Datasets are registered afterwards via
// Register/RegisterGraph. A nil ServerOptions.Backend selects LocalBackend.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Backend == nil {
		opts.Backend = LocalBackend()
	}
	return server.New(opts)
}

// LocalBackend returns the single-node counting backend: a shard coordinator
// that plans one range per query and computes it in process, with the range
// kernels a shard worker runs, so one node and a cluster of any size serve
// the same bits. Its answers are those of this package's Count, CountStar4,
// CountPath4, CountMotif, Significance and approximate counters for the
// same request.
func LocalBackend() server.Backend { return shard.Local() }

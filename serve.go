package hare

import (
	"context"
	"fmt"

	"hare/internal/approx"
	"hare/internal/higher"
	"hare/internal/live"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
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

// ServerOptions configures NewServer. Leave Backend nil to count with this
// package's Count/CountStar4/CountPath4/Significance — the default and
// normally the only sensible choice.
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

// NewServer returns a query service counting with this package's public
// APIs. Datasets are registered afterwards via Register/RegisterGraph.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Backend == nil {
		opts.Backend = libraryBackend{}
	}
	return server.New(opts)
}

// LocalBackend returns the in-process counting backend NewServer installs
// when ServerOptions.Backend is nil. A shard coordinator replaces it with
// the scatter/gather backend, whose workers run the range kernels under
// these same counts.
func LocalBackend() server.Backend { return libraryBackend{} }

// libraryBackend adapts the public counting APIs to the server's Backend
// seam, so served answers are bit-identical to direct library calls. It
// computes in-process and ignores the flight context (the admission
// semaphore already handled cancellation before compute starts).
type libraryBackend struct{}

func (libraryBackend) options(req server.Request) []Option {
	opts := []Option{WithWorkers(req.Workers)}
	// normalize canonicalizes an explicit thrd=0 to unset (both mean
	// "auto"), so ThrdSet alone decides — no Thrd != 0 special case that
	// could make the response's DegreeThreshold echo disagree with the
	// request.
	if req.ThrdSet {
		opts = append(opts, WithDegreeThreshold(req.Thrd))
	}
	return opts
}

func (b libraryBackend) Count(_ context.Context, g *temporal.Graph, req server.Request) (server.CountAnswer, error) {
	opts := b.options(req)
	if req.Motif != "" {
		l, err := ParseLabel(req.Motif)
		if err != nil {
			return server.CountAnswer{}, err
		}
		opts = append(opts, WithOnly(l.Category()))
	}
	res, err := Count(g, Timestamp(req.Delta), opts...)
	if err != nil {
		return server.CountAnswer{}, err
	}
	return server.CountAnswer{
		Matrix:          res.Matrix,
		Workers:         res.Workers,
		DegreeThreshold: res.DegreeThreshold,
	}, nil
}

func (b libraryBackend) Star4(_ context.Context, g *temporal.Graph, req server.Request) (higher.Star4Counter, error) {
	return CountStar4(g, Timestamp(req.Delta), b.options(req)...)
}

func (b libraryBackend) Path4(_ context.Context, g *temporal.Graph, req server.Request) (higher.PathCounter, error) {
	return CountPath4(g, Timestamp(req.Delta), b.options(req)...)
}

func (b libraryBackend) Query(_ context.Context, g *temporal.Graph, req server.Request) (uint64, error) {
	spec, err := ParseSpec(req.Spec) // canonical after normalize; reparse is cheap
	if err != nil {
		return 0, err
	}
	return CountMotif(g, spec, Timestamp(req.Delta), b.options(req)...)
}

// approxOptions maps a normalized approx-mode request onto the estimator
// knobs. Workers is the admission weight the server resolved — a resource
// hint only, never part of the answer.
func approxOptions(req server.Request) ApproxOptions {
	return ApproxOptions{
		Epsilon:    req.Epsilon,
		Confidence: req.Conf,
		Seed:       req.Seed,
		Samples:    req.Samples,
		Workers:    req.Workers,
	}
}

func (b libraryBackend) Star4Approx(_ context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return CountStar4Approx(g, Timestamp(req.Delta), approxOptions(req))
}

func (b libraryBackend) Path4Approx(_ context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	return CountPath4Approx(g, Timestamp(req.Delta), approxOptions(req))
}

func (b libraryBackend) QueryApprox(_ context.Context, g *temporal.Graph, req server.Request) (*approx.Result, error) {
	spec, err := ParseSpec(req.Spec) // canonical after normalize; reparse is cheap
	if err != nil {
		return nil, err
	}
	return CountMotifApprox(g, spec, Timestamp(req.Delta), approxOptions(req))
}

func (b libraryBackend) Significance(_ context.Context, g *temporal.Graph, req server.Request) (*nullmodel.Report, error) {
	model, err := ParseNullModel(req.Model)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return Significance(g, Timestamp(req.Delta), SignificanceOptions{
		Model:   model,
		Trials:  req.Samples,
		Seed:    req.Seed,
		Workers: req.Workers,
	})
}

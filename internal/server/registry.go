package server

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"hare/internal/live"
	"hare/internal/temporal"
)

// LoadFunc produces a dataset's graph. The registry calls it at most once
// per residency: on the first request that needs the dataset, and again
// only if the graph was evicted in between.
type LoadFunc func() (*temporal.Graph, error)

// SourcedLoadFunc is a LoadFunc that also reports the graph's load
// provenance: a short "<kind> <path>" string ("snapshot x.hare",
// "snapshot-sibling x.txt.hare", "text x.txt", "text-fallback x.txt") or a
// bare kind ("memory", "synthetic"). The registry surfaces the last
// successful load's source through /v1/datasets, so operators can see
// which nodes cold-started off binary .hare files and which paid a text
// parse.
type SourcedLoadFunc func() (*temporal.Graph, string, error)

// Registry maps dataset names to graphs. An immutable dataset loads lazily
// into graphs, a Cache keyed by dataset name: concurrent first requests
// coalesce onto one load, and beyond maxLoaded resident graphs the least
// recently used one is evicted and transparently reloads on next use. A
// live dataset resolves to its current snapshot on every Get and never
// enters that LRU. Registrations themselves are never evicted.
//
// mu guards entries, each entry's source and loads. Nothing calls into a
// live.Dataset (Version, SnapshotDims, Stats, Graph) while holding it:
// those wait on the dataset's ingest, and /v1/datasets, /healthz, /metrics
// and every query's cacheKey must not wait behind an AddBatch.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	graphs  *Cache // resident immutable graphs, by dataset name
	loads   uint64 // successful loads; graphs' misses also count failed ones
}

// regEntry is one registration. name, desc, load and live never change
// after add, so they may be read without Registry.mu.
type regEntry struct {
	name string
	desc string
	load SourcedLoadFunc // immutable datasets
	live *live.Dataset   // live datasets, whose load is nil

	source string // provenance of the last successful load ("" = never loaded)
}

// NewRegistry returns a registry keeping at most maxLoaded graphs resident
// (0 means unbounded).
func NewRegistry(maxLoaded int) *Registry {
	if maxLoaded <= 0 {
		maxLoaded = math.MaxInt // a Cache reads capacity <= 0 as "store nothing"
	}
	return &Registry{entries: make(map[string]*regEntry), graphs: NewCache(maxLoaded)}
}

// Register adds a named dataset backed by a loader with unknown
// provenance. desc is a short human-readable description surfaced by
// /v1/datasets; prefer RegisterSourced when the loader knows where its
// bytes come from.
func (r *Registry) Register(name, desc string, load LoadFunc) error {
	return r.RegisterSourced(name, desc, func() (*temporal.Graph, string, error) {
		g, err := load()
		return g, "", err
	})
}

// RegisterSourced adds a named dataset backed by a provenance-reporting
// loader (see SourcedLoadFunc).
func (r *Registry) RegisterSourced(name, desc string, load SourcedLoadFunc) error {
	return r.add(&regEntry{name: name, desc: desc, load: load})
}

// RegisterGraph adds a pre-built resident graph. It never loads and, being
// backed by an always-ready loader, reinstates itself at zero cost if
// evicted.
func (r *Registry) RegisterGraph(name, desc string, g *temporal.Graph) error {
	return r.RegisterSourced(name, desc, func() (*temporal.Graph, string, error) { return g, "memory", nil })
}

// RegisterLive adds a live dataset under its name. Get returns its current
// snapshot (live.Dataset.Graph, cached per version) and it never enters
// the LRU, so eviction pressure from immutable datasets never touches it.
func (r *Registry) RegisterLive(d *live.Dataset, desc string) error {
	return r.add(&regEntry{name: d.Name(), desc: desc, live: d, source: "live"})
}

// add publishes a complete entry in one step: no Get sees it half built.
func (r *Registry) add(e *regEntry) error {
	if e.name == "" {
		return fmt.Errorf("server: empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[e.name]; ok {
		return fmt.Errorf("server: dataset %q already registered", e.name)
	}
	r.entries[e.name] = e
	return nil
}

// lookup returns name's entry, or nil when it is not registered.
func (r *Registry) lookup(name string) *regEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[name]
}

// Get returns the named graph, loading it if necessary. Concurrent callers
// for the same dataset share one load (and a panicking loader resolves as
// an error instead of wedging the dataset — see group).
func (r *Registry) Get(name string) (*temporal.Graph, error) {
	e := r.lookup(name)
	if e == nil {
		return nil, &UnknownDatasetError{Name: name}
	}
	if e.live != nil {
		// Two concurrent Gets may legitimately see different versions.
		return e.live.Graph(), nil
	}
	// Loads always run to completion once started — a graph is durable
	// state worth keeping even if the requesters gave up — hence the
	// Background context. Graphs handed out before an eviction stay valid:
	// they are immutable and collected once the last request drops them.
	v, _, _, err := r.graphs.Do(context.Background(), name, func(context.Context) (any, error) {
		g, source, err := e.load()
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.loads++
		e.source = source
		r.mu.Unlock()
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*temporal.Graph), nil
}

// UnknownDatasetError reports a request for an unregistered dataset.
type UnknownDatasetError struct{ Name string }

func (e *UnknownDatasetError) Error() string {
	return fmt.Sprintf("unknown dataset %q", e.Name)
}

// DatasetInfo describes one registered dataset for /v1/datasets. Source is
// the provenance of the most recent successful load (see SourcedLoadFunc);
// it persists across LRU eviction — it describes where the graph came
// from, not whether it is resident now — and is empty for a dataset that
// has never loaded.
type DatasetInfo struct {
	Name   string `json:"name"`
	Desc   string `json:"desc,omitempty"`
	Loaded bool   `json:"loaded"`
	Source string `json:"source,omitempty"`
	Nodes  int    `json:"nodes,omitempty"`
	Edges  int    `json:"edges,omitempty"`
	// Live datasets (mutable, fed by /v1/ingest) additionally report their
	// current version; immutable datasets are implicitly version 1 and omit
	// both fields. A live dataset is Loaded, with its dimensions, once a
	// graph snapshot for its current version is materialized.
	Live    bool   `json:"live,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// List describes the registered datasets, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	es := make([]*regEntry, 0, len(r.entries))
	out := make([]DatasetInfo, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
		out = append(out, DatasetInfo{Name: e.name, Desc: e.desc, Source: e.source, Live: e.live != nil})
	}
	r.mu.Unlock()

	// Outside r.mu: a live dataset's accessors wait on its ingest.
	for i, e := range es {
		info := &out[i]
		if e.live != nil {
			info.Version = e.live.Version()
			info.Nodes, info.Edges, info.Loaded = e.live.SnapshotDims()
		} else if g, _ := r.graphs.peek(e.name).(*temporal.Graph); g != nil {
			info.Loaded, info.Nodes, info.Edges = true, g.NumNodes(), g.NumEdges()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// liveDatasets returns the registered live datasets, in no order.
func (r *Registry) liveDatasets() []*live.Dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*live.Dataset
	for _, e := range r.entries {
		if e.live != nil {
			out = append(out, e.live)
		}
	}
	return out
}

// Stats returns cumulative load and eviction counts and the resident set
// size.
func (r *Registry) Stats() (loads, evictions uint64, resident int) {
	_, _, evictions, _ = r.graphs.Stats()
	r.mu.Lock()
	loads = r.loads
	r.mu.Unlock()
	return loads, evictions, r.graphs.Len()
}

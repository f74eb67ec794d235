package server

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"

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

// Registry maps dataset names to immutable graphs, loading each one
// lazily, exactly once per residency (concurrent first requests coalesce
// onto a single load), and evicting the least recently used graph when
// more than maxLoaded are resident. Registrations themselves are never
// evicted — an evicted dataset transparently reloads on next use.
type Registry struct {
	mu        sync.Mutex
	entries   map[string]*regEntry
	lru       *list.List // front = most recently used resident graph
	maxLoaded int
	flights   group // coalesces concurrent first loads per dataset

	loads     uint64
	evictions uint64
}

type regEntry struct {
	name string
	load SourcedLoadFunc
	desc string

	g      *temporal.Graph // nil when not resident
	elem   *list.Element   // position in lru when resident
	source string          // provenance of the last successful load ("" = never loaded)

	// volatile entries (live datasets) re-resolve their graph on every Get
	// and never join the LRU: they cannot be evicted, and their loader —
	// which snapshots mutable state and must stay cheap — is the single
	// source of truth for the current graph.
	volatile bool
}

// NewRegistry returns a registry keeping at most maxLoaded graphs resident
// (0 means unbounded).
func NewRegistry(maxLoaded int) *Registry {
	return &Registry{
		entries:   make(map[string]*regEntry),
		lru:       list.New(),
		maxLoaded: maxLoaded,
	}
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
	if name == "" {
		return fmt.Errorf("server: empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("server: dataset %q already registered", name)
	}
	r.entries[name] = &regEntry{name: name, load: load, desc: desc}
	return nil
}

// RegisterGraph adds a pre-built resident graph. It never loads and, being
// backed by an always-ready loader, reinstates itself at zero cost if
// evicted.
func (r *Registry) RegisterGraph(name, desc string, g *temporal.Graph) error {
	return r.RegisterSourced(name, desc, func() (*temporal.Graph, string, error) { return g, "memory", nil })
}

// RegisterVolatile adds a dataset whose graph changes over time (a live
// dataset): Get calls load on every request — load must therefore be cheap,
// e.g. a version-cached snapshot — and the entry never enters the LRU, so
// eviction pressure from immutable datasets can never touch it.
func (r *Registry) RegisterVolatile(name, desc, source string, load LoadFunc) error {
	if err := r.RegisterSourced(name, desc, func() (*temporal.Graph, string, error) {
		g, err := load()
		return g, source, err
	}); err != nil {
		return err
	}
	r.mu.Lock()
	e := r.entries[name]
	e.volatile = true
	e.source = source
	r.mu.Unlock()
	return nil
}

// Get returns the named graph, loading it if necessary. Concurrent callers
// for the same dataset share one load (and a panicking loader resolves as
// an error instead of wedging the dataset — see group).
func (r *Registry) Get(name string) (*temporal.Graph, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return nil, &UnknownDatasetError{Name: name}
	}
	if e.volatile {
		r.mu.Unlock()
		// No flight, no residency, no LRU: the loader snapshots live state
		// (cheaply, cached per version downstream) and two concurrent Gets
		// may legitimately see different versions.
		g, _, err := e.load()
		return g, err
	}
	if g := r.resident(e); g != nil {
		r.mu.Unlock()
		return g, nil
	}
	r.mu.Unlock()

	// Loads always run to completion once started — a graph is durable
	// state worth keeping even if the requesters gave up — hence the
	// Background context.
	v, _, err := r.flights.do(context.Background(), name, func(context.Context) (any, error) {
		// A flight for name may have resolved between the check above and
		// this one starting: its graph is resident, so hand it out.
		r.mu.Lock()
		g := r.resident(e)
		r.mu.Unlock()
		if g != nil {
			return g, nil
		}
		g, source, err := e.load()
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		// Store before the flight resolves so a Get racing its completion
		// finds the resident graph instead of starting a second flight.
		r.loads++
		e.g, e.source = g, source
		e.elem = r.lru.PushFront(e)
		r.evictOverflow()
		r.mu.Unlock()
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*temporal.Graph), nil
}

// resident returns e's graph, marking it most recently used, or nil when it
// is not loaded. Callers hold r.mu.
func (r *Registry) resident(e *regEntry) *temporal.Graph {
	if e.g != nil {
		r.lru.MoveToFront(e.elem)
	}
	return e.g
}

// evictOverflow drops least-recently-used resident graphs beyond the
// budget. Callers hold r.mu. Graphs handed out earlier stay valid — they
// are immutable and garbage collected once the last request drops them.
func (r *Registry) evictOverflow() {
	if r.maxLoaded <= 0 {
		return
	}
	for r.lru.Len() > r.maxLoaded {
		back := r.lru.Back()
		e := r.lru.Remove(back).(*regEntry)
		e.g, e.elem = nil, nil
		r.evictions++
	}
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
	// both fields. The server fills these in — the registry only knows the
	// entry is volatile.
	Live    bool   `json:"live,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// List describes the registered datasets, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(r.entries))
	for _, e := range r.entries {
		info := DatasetInfo{Name: e.name, Desc: e.desc, Loaded: e.g != nil, Source: e.source, Live: e.volatile}
		if e.g != nil {
			info.Nodes = e.g.NumNodes()
			info.Edges = e.g.NumEdges()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns cumulative load and eviction counts and the resident set
// size.
func (r *Registry) Stats() (loads, evictions uint64, resident int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loads, r.evictions, r.lru.Len()
}

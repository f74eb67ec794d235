package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hare/internal/live"
)

// metrics aggregates the server's operational counters. Everything is
// cumulative since process start; /metrics renders the Prometheus text
// exposition format so standard scrapers work out of the box.
type metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointStats
	cancelled atomic.Uint64 // jobs whose flight was canceled, queued or running
}

type endpointStats struct {
	requests uint64
	errors   uint64
	nanos    int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), endpoints: make(map[string]*endpointStats)}
}

// observe records one finished request against an endpoint.
func (m *metrics) observe(endpoint string, d time.Duration, failed bool) {
	m.mu.Lock()
	st := m.endpoints[endpoint]
	if st == nil {
		st = &endpointStats{}
		m.endpoints[endpoint] = st
	}
	st.requests++
	if failed {
		st.errors++
	}
	st.nanos += d.Nanoseconds()
	m.mu.Unlock()
}

// write renders the exposition text. The server passes itself in for the
// cache/registry/admission gauges so all counters appear in one scrape.
func (m *metrics) write(w io.Writer, s *Server) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name string
		endpointStats
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		rows = append(rows, row{name, *m.endpoints[name]})
	}
	uptime := time.Since(m.start).Seconds()
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP hared_requests_total Requests served, by endpoint.\n# TYPE hared_requests_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "hared_requests_total{endpoint=%q} %d\n", r.name, r.requests)
	}
	fmt.Fprintf(w, "# HELP hared_request_errors_total Requests that returned an error status, by endpoint.\n# TYPE hared_request_errors_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "hared_request_errors_total{endpoint=%q} %d\n", r.name, r.errors)
	}
	fmt.Fprintf(w, "# HELP hared_request_seconds_total Wall-clock time spent serving, by endpoint.\n# TYPE hared_request_seconds_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "hared_request_seconds_total{endpoint=%q} %g\n", r.name, float64(r.nanos)/1e9)
	}

	hits, misses, evictions, coalesced := s.cache.Stats()
	fmt.Fprintf(w, "# HELP hared_cache_hits_total Results served from the LRU cache.\n# TYPE hared_cache_hits_total counter\nhared_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# HELP hared_cache_misses_total Results computed fresh.\n# TYPE hared_cache_misses_total counter\nhared_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# HELP hared_cache_evictions_total Results aged out of the LRU cache.\n# TYPE hared_cache_evictions_total counter\nhared_cache_evictions_total %d\n", evictions)
	fmt.Fprintf(w, "# HELP hared_dedup_coalesced_total Requests that joined another request's in-flight computation.\n# TYPE hared_dedup_coalesced_total counter\nhared_dedup_coalesced_total %d\n", coalesced)
	fmt.Fprintf(w, "# HELP hared_cache_entries Results currently cached.\n# TYPE hared_cache_entries gauge\nhared_cache_entries %d\n", s.cache.Len())

	waits, inflight := s.admission.Stats()
	fmt.Fprintf(w, "# HELP hared_admission_waits_total Jobs that blocked for worker budget.\n# TYPE hared_admission_waits_total counter\nhared_admission_waits_total %d\n", waits)
	fmt.Fprintf(w, "# HELP hared_jobs_inflight Counting jobs currently admitted.\n# TYPE hared_jobs_inflight gauge\nhared_jobs_inflight %d\n", inflight)
	fmt.Fprintf(w, "# HELP hared_worker_budget Total admission worker budget.\n# TYPE hared_worker_budget gauge\nhared_worker_budget %d\n", s.admission.Budget())
	queued, granted := s.admission.Queue()
	fmt.Fprintf(w, "# HELP hared_admission_queue_depth Counting jobs waiting for worker budget.\n# TYPE hared_admission_queue_depth gauge\nhared_admission_queue_depth %d\n", queued)
	fmt.Fprintf(w, "# HELP hared_admission_granted_workers_total Worker units granted to admitted jobs (divided by jobs: the mean job width).\n# TYPE hared_admission_granted_workers_total counter\nhared_admission_granted_workers_total %d\n", granted)
	fmt.Fprintf(w, "# HELP hared_jobs_cancelled_total Counting jobs stopped because every request waiting on them had gone, queued or running.\n# TYPE hared_jobs_cancelled_total counter\nhared_jobs_cancelled_total %d\n", m.cancelled.Load())

	loads, devictions, resident := s.registry.Stats()
	fmt.Fprintf(w, "# HELP hared_dataset_loads_total Dataset graph loads.\n# TYPE hared_dataset_loads_total counter\nhared_dataset_loads_total %d\n", loads)
	fmt.Fprintf(w, "# HELP hared_dataset_evictions_total Dataset graphs evicted from the registry.\n# TYPE hared_dataset_evictions_total counter\nhared_dataset_evictions_total %d\n", devictions)
	fmt.Fprintf(w, "# HELP hared_datasets_resident Dataset graphs currently loaded.\n# TYPE hared_datasets_resident gauge\nhared_datasets_resident %d\n", resident)

	if lds := s.registry.liveDatasets(); len(lds) > 0 {
		type liveRow struct {
			name  string
			stats live.Stats
		}
		lrows := make([]liveRow, 0, len(lds))
		for _, d := range lds {
			lrows = append(lrows, liveRow{d.Name(), d.Stats()})
		}
		sort.Slice(lrows, func(i, j int) bool { return lrows[i].name < lrows[j].name })
		fmt.Fprintf(w, "# HELP hared_ingest_batches_total Accepted ingest batches, by live dataset.\n# TYPE hared_ingest_batches_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_ingest_batches_total{dataset=%q} %d\n", r.name, r.stats.Ingests)
		}
		fmt.Fprintf(w, "# HELP hared_ingest_edges_total Accepted ingested edges, by live dataset.\n# TYPE hared_ingest_edges_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_ingest_edges_total{dataset=%q} %d\n", r.name, r.stats.Edges)
		}
		fmt.Fprintf(w, "# HELP hared_ingest_rejected_total Rejected ingest batches, by live dataset.\n# TYPE hared_ingest_rejected_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_ingest_rejected_total{dataset=%q} %d\n", r.name, r.stats.Rejected)
		}
		fmt.Fprintf(w, "# HELP hared_live_version Current version, by live dataset.\n# TYPE hared_live_version gauge\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_live_version{dataset=%q} %d\n", r.name, r.stats.Version)
		}
		fmt.Fprintf(w, "# HELP hared_live_snapshot_builds_total Graph snapshots built for reads (one per version read), by live dataset.\n# TYPE hared_live_snapshot_builds_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_live_snapshot_builds_total{dataset=%q} %d\n", r.name, r.stats.SnapshotBuilds)
		}
		fmt.Fprintf(w, "# HELP hared_live_snapshot_seconds_total Time spent building graph snapshots, by live dataset.\n# TYPE hared_live_snapshot_seconds_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_live_snapshot_seconds_total{dataset=%q} %g\n", r.name, r.stats.SnapshotTime.Seconds())
		}
		fmt.Fprintf(w, "# HELP hared_watch_alerts_total Significance alerts published, by live dataset.\n# TYPE hared_watch_alerts_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_watch_alerts_total{dataset=%q} %d\n", r.name, r.stats.Alerts)
		}
		fmt.Fprintf(w, "# HELP hared_watch_dropped_total Alerts dropped on full subscriber buffers, by live dataset.\n# TYPE hared_watch_dropped_total counter\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_watch_dropped_total{dataset=%q} %d\n", r.name, r.stats.Dropped)
		}
		fmt.Fprintf(w, "# HELP hared_watch_subscribers Watch subscribers currently connected, by live dataset.\n# TYPE hared_watch_subscribers gauge\n")
		for _, r := range lrows {
			fmt.Fprintf(w, "hared_watch_subscribers{dataset=%q} %d\n", r.name, r.stats.Subscribers)
		}
	}

	fmt.Fprintf(w, "# HELP hared_uptime_seconds Seconds since the server started.\n# TYPE hared_uptime_seconds gauge\nhared_uptime_seconds %g\n", uptime)
	fmt.Fprintf(w, "# HELP hared_build_info Build metadata as labels; value is always 1.\n# TYPE hared_build_info gauge\nhared_build_info{version=%q} 1\n", s.version)
}

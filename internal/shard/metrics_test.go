package shard

import (
	"strings"
	"testing"
	"time"
)

// The coordinator's /metrics text names every series and lists its labels
// sorted, whatever order the maps hold them in, so two scrapes of the same
// counters are byte-identical.
func TestMetricsWrite(t *testing.T) {
	m := NewMetrics()
	m.observe("star4", 1, "http://b", 2*time.Second, false)
	m.observe("count", 1, "http://b", 250*time.Millisecond, false)
	m.observe("count", 0, "http://a", 500*time.Millisecond, true)
	m.observe("count", 0, "http://a", 500*time.Millisecond, false)
	m.retry("star4")
	m.retry("count")
	m.retry("count")
	m.hedge("path4")
	m.failure("sig", 1)
	m.failure("count", 2)

	want := `# HELP hared_shard_requests_total Sub-request attempts sent to shard workers.
# TYPE hared_shard_requests_total counter
hared_shard_requests_total{kind="count",peer="http://a"} 2
hared_shard_requests_total{kind="count",peer="http://b"} 1
hared_shard_requests_total{kind="star4",peer="http://b"} 1
# HELP hared_shard_request_errors_total Sub-request attempts that failed (transport or non-2xx).
# TYPE hared_shard_request_errors_total counter
hared_shard_request_errors_total{kind="count",peer="http://a"} 1
hared_shard_request_errors_total{kind="count",peer="http://b"} 0
hared_shard_request_errors_total{kind="star4",peer="http://b"} 0
# HELP hared_shard_latency_seconds_sum Summed sub-request latency per worker.
# TYPE hared_shard_latency_seconds_sum counter
hared_shard_latency_seconds_sum{kind="count",peer="http://a"} 1
hared_shard_latency_seconds_sum{kind="count",peer="http://b"} 0.25
hared_shard_latency_seconds_sum{kind="star4",peer="http://b"} 2
# HELP hared_shard_retries_total Sub-request retry attempts after a shard failure.
# TYPE hared_shard_retries_total counter
hared_shard_retries_total{kind="count"} 2
hared_shard_retries_total{kind="star4"} 1
# HELP hared_shard_hedges_total Hedged duplicate dispatches on straggling shards.
# TYPE hared_shard_hedges_total counter
hared_shard_hedges_total{kind="path4"} 1
# HELP hared_shard_scatter_failures_total Scatters that failed at least one shard after all retries.
# TYPE hared_shard_scatter_failures_total counter
hared_shard_scatter_failures_total{kind="count"} 1
hared_shard_scatter_failures_total{kind="sig"} 1
# HELP hared_shard_failed_shards_total Shards lost across all degraded scatters.
# TYPE hared_shard_failed_shards_total counter
hared_shard_failed_shards_total 3
`
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		m.Write(&sb)
		if got := sb.String(); got != want {
			t.Fatalf("scrape %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if kind, peer := split("count"); kind != "count" || peer != "" {
		t.Fatalf("split of a key without a peer = %q, %q", kind, peer)
	}
}

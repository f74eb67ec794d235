package shard_test

// End-to-end proof of the scale-out invariant: clusters of 1, 2 and 4
// worker processes (real HTTP servers on ephemeral ports, the full
// hared serving stack on the coordinator) must answer every /v1 endpoint
// byte-identically to a single-node hared — which PR 5's e2e pins to
// direct library calls — and the load-bearing cells are additionally
// spot-checked against the library here. Runs under -race in CI.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hare"
	"hare/internal/gen"
	"hare/internal/shard"
)

func e2eGraph(t testing.TB) *hare.Graph {
	t.Helper()
	cfg, err := gen.DatasetByName("collegemsg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Scaled(cfg, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bootWorker starts one worker process: the public /v1 stack plus the
// /shard endpoints, sharing one registry, counting with the same
// in-process backend a single-node hared uses.
func bootWorker(t *testing.T, g *hare.Graph) *httptest.Server {
	t.Helper()
	srv, err := hare.NewServer(hare.ServerOptions{Role: "worker", WorkerBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("college", "e2e graph", g); err != nil {
		t.Fatal(err)
	}
	w := &shard.Worker{Graphs: srv, Backend: hare.LocalBackend(), Version: "e2e"}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle(shard.PathCompute, w.Handler())
	mux.Handle(shard.PathInfo, w.Handler())
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

// bootCoordinator starts the scatter/gather tier over the given workers.
func bootCoordinator(t *testing.T, g *hare.Graph, peers []string) *httptest.Server {
	t.Helper()
	client, err := shard.NewClient(peers, shard.Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hare.NewServer(hare.ServerOptions{
		Backend:      shard.NewCoordinator(client),
		Role:         "coordinator",
		WorkerBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("college", "e2e graph", g); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// fetchNormalized GETs a query and strips the only legitimately
// nondeterministic field (elapsed_ms) so bodies byte-compare.
func fetchNormalized(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, data)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

var e2eQueries = []string{
	"/v1/count?dataset=college&delta=600",
	"/v1/count?dataset=college&delta=600&motif=M26",
	"/v1/star4?dataset=college&delta=600",
	"/v1/path4?dataset=college&delta=600",
	"/v1/sig?dataset=college&delta=600&samples=6&seed=3",
	// Both compiled-plan pivot families: star specs (4-node and 3-node)
	// and a triangle spec scatter incidence-position ranges, a 4-node path
	// spec scatters middle-edge ranges. (Comma is the spec separator here
	// because raw semicolons are invalid in URL query strings; %3E is ">".)
	"/v1/query?dataset=college&delta=600&spec=a-%3Eb,a-%3Ec,a-%3Ed",
	"/v1/query?dataset=college&delta=600&spec=a-%3Eb,a-%3Ec,b-%3Ea",
	"/v1/query?dataset=college&delta=600&spec=a-%3Eb,b-%3Ec,c-%3Ea",
	"/v1/query?dataset=college&delta=600&spec=a-%3Eb,b-%3Ec,c-%3Ed",
	// Approximate mode: for path4 and path specs the coordinator scatters
	// stratum-index ranges, workers rebuild the identical sampling plan from
	// the wire knobs and return raw moments, and the gathered finish —
	// estimate, intervals, telemetry — must byte-match the single node's
	// (docs/APPROX.md). star4 and the triangle spec are node-pivot families,
	// answered exactly through their exact scatters.
	"/v1/star4?dataset=college&delta=600&epsilon=0.05&seed=7",
	"/v1/path4?dataset=college&delta=600&epsilon=0.1&conf=0.99&seed=7",
	"/v1/query?dataset=college&delta=600&spec=a-%3Eb,b-%3Ec,c-%3Ed&epsilon=0.05&seed=7",
	"/v1/query?dataset=college&delta=600&spec=a-%3Eb,b-%3Ec,c-%3Ea&epsilon=0.05&seed=7",
}

// TestClusterBitIdenticalAcrossWorkerCounts is the acceptance test: every
// /v1 endpoint, served through 1-, 2- and 4-worker scatter/gather
// clusters, answers byte-identically to the single-node server.
func TestClusterBitIdenticalAcrossWorkerCounts(t *testing.T) {
	g := e2eGraph(t)

	// The single-node reference: same serving stack, in-process backend.
	single, err := hare.NewServer(hare.ServerOptions{WorkerBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.RegisterGraph("college", "e2e graph", g); err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(single.Handler())
	defer ref.Close()
	want := make(map[string]string, len(e2eQueries))
	for _, q := range e2eQueries {
		want[q] = fetchNormalized(t, ref.URL, q)
	}

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			peers := make([]string, workers)
			for i := range peers {
				peers[i] = bootWorker(t, g).URL
			}
			coord := bootCoordinator(t, g, peers)
			for _, q := range e2eQueries {
				if got := fetchNormalized(t, coord.URL, q); got != want[q] {
					t.Errorf("%s: %d-worker cluster response diverges from single node\n got %s\nwant %s",
						q, workers, got, want[q])
				}
			}
		})
	}

	// Spot-check the reference against direct library calls, so the chain
	// cluster == single-node == library is closed inside this test too.
	count, err := hare.Count(g, 600)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Total  uint64            `json:"total"`
		Matrix map[string]uint64 `json:"matrix"`
	}
	if err := json.Unmarshal([]byte(want["/v1/count?dataset=college&delta=600"]), &body); err != nil {
		t.Fatal(err)
	}
	if body.Total != count.Matrix.Total() {
		t.Errorf("served total %d, library total %d", body.Total, count.Matrix.Total())
	}
	for _, l := range hare.AllLabels() {
		if body.Matrix[l.String()] != count.Matrix.At(l) {
			t.Errorf("served %s = %d, library %d", l, body.Matrix[l.String()], count.Matrix.At(l))
		}
	}
}

// TestClusterHealthAndInfo checks the operator surface: roles in
// /healthz and the worker's shard info endpoint.
func TestClusterHealthAndInfo(t *testing.T) {
	g := e2eGraph(t)
	worker := bootWorker(t, g)
	coord := bootCoordinator(t, g, []string{worker.URL})

	var health struct {
		Role string `json:"role"`
	}
	resp, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Role != "coordinator" {
		t.Errorf("coordinator /healthz role = %q", health.Role)
	}

	var info shard.Info
	resp2, err := http.Get(worker.URL + shard.PathInfo)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Proto != shard.ProtoVersion || info.Role != "worker" {
		t.Errorf("info = %+v", info)
	}
	if len(info.Datasets) != 1 || info.Datasets[0] != "college" {
		t.Errorf("info datasets = %v", info.Datasets)
	}
}

// TestDatasetsReportProvenance covers the /v1/datasets provenance field
// end to end: a memory-registered graph reports "memory" once loaded.
func TestDatasetsReportProvenance(t *testing.T) {
	g := e2eGraph(t)
	worker := bootWorker(t, g)
	// Touch the dataset so the (lazy) load provenance is recorded.
	if _, err := http.Get(worker.URL + "/v1/count?dataset=college&delta=600"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(worker.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), `"source": "memory"`) {
		t.Errorf("/v1/datasets missing memory provenance: %s", data)
	}
}

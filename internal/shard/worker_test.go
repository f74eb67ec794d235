package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// TestWorkerBoundsHostileSubRequests: a sub-request's workers hint is
// clamped to the CPUs — it never changes the partial, so a huge one gets the
// exact partial — and a sample range past nullmodel.MaxSamples is a 400.
// Neither may size an allocation.
func TestWorkerBoundsHostileSubRequests(t *testing.T) {
	g := shardTestGraph(t)
	live := liveWorker(t, g)
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(live.URL+PathCompute, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	status, data := post(fmt.Sprintf(`{"proto":%d,"kind":"count","dataset":"d","delta":600,"shard":0,"shards":1,"lo":0,"hi":%d,"nodes":%d,"edges":%d,"workers":10000000000}`,
		ProtoVersion, g.NumIncidences(), g.NumNodes(), g.NumEdges()))
	if status != http.StatusOK {
		t.Fatalf("huge workers hint: HTTP %d: %s", status, data)
	}
	var p Partial
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if want := engine.Count(g, 600, engine.Options{Workers: 2}); !slices.Equal(p.Cells, want.Cells()) {
		t.Fatal("huge workers hint: partial diverges from the full count")
	}

	status, data = post(fmt.Sprintf(`{"proto":%d,"kind":"sig","dataset":"d","delta":600,"shard":0,"shards":1,"lo":0,"hi":10000000000,"model":"time-shuffle","nodes":%d,"edges":%d}`,
		ProtoVersion, g.NumNodes(), g.NumEdges()))
	if status != http.StatusBadRequest || !strings.Contains(string(data), fmt.Sprint(nullmodel.MaxSamples)) {
		t.Fatalf("sample range past the limit: HTTP %d: %s, want 400 naming %d", status, data, nullmodel.MaxSamples)
	}
}

// TestWorkerRefusesOversizedSubRequest: a body past maxSubRequestBytes is
// refused with a 413 and a short wire error. The worker stops reading at
// the limit, so the body sizes neither an allocation nor the error it
// answers with.
func TestWorkerRefusesOversizedSubRequest(t *testing.T) {
	g := shardTestGraph(t)
	w := &Worker{Graphs: &fakeSource{name: "d", g: g}, Version: "test"}
	body := fmt.Sprintf(`{"proto":%d,"kind":"count","dataset":"%s","delta":600,"shard":0,"shards":1}`,
		ProtoVersion, strings.Repeat("x", 2*maxSubRequestBytes))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathCompute, strings.NewReader(body)))
	var we wireError
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.Len() > 1024 ||
		json.Unmarshal(rec.Body.Bytes(), &we) != nil || we.Error == "" {
		t.Fatalf("oversized sub-request: HTTP %d with a %d-byte body, want 413 with a short wire error", rec.Code, rec.Body.Len())
	}
}

// TestDeltaZeroCrossesTheWire: an explicit δ = 0 reaches every worker as 0
// (delta_set rides the wire), so a two-worker star4 scatter equals the
// library's δ = 0 count, not the count at the default δ = 600.
func TestDeltaZeroCrossesTheWire(t *testing.T) {
	// Bursts of simultaneous out-edges from hub 0, with a follow-up edge
	// a second later that only a positive δ joins to them.
	var edges []temporal.Edge
	for i := 0; i < 4; i++ {
		at := temporal.Timestamp(100 * i)
		edges = append(edges,
			temporal.Edge{From: 0, To: 1, Time: at}, temporal.Edge{From: 0, To: 2, Time: at},
			temporal.Edge{From: 0, To: 3, Time: at}, temporal.Edge{From: 4, To: 0, Time: at + 1})
	}
	g := temporal.FromEdges(edges)
	want := higher.CountStar4(g, 0, higher.Options{Workers: 1})
	if want.Total() == 0 || want == higher.CountStar4(g, 600, higher.Options{Workers: 1}) {
		t.Fatal("fixture does not tell δ = 0 from δ = 600")
	}
	req, _, err := server.ParseRequest(server.KindStar4, url.Values{"dataset": {"d"}, "delta": {"0"}, "workers": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient([]string{liveWorker(t, g).URL, liveWorker(t, g).URL}, Policy{Timeout: 10 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCoordinator(client).Star4(context.Background(), g, req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("δ = 0 star4 through two workers = %v, want %v", got, want)
	}
}

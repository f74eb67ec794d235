package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"hare/internal/engine"
	"hare/internal/nullmodel"
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

package live_test

import (
	"math/rand"
	"testing"

	"hare"
	"hare/internal/gen"
	"hare/internal/live"
)

// TestLiveReplayMatchesBatch feeds wikitalk:0.1 to a live dataset in
// uneven batches. At every version the snapshot — built by folding the
// batch into the previous snapshot, never from scratch after the first —
// must give the library's batch answers on the same prefix.
func TestLiveReplayMatchesBatch(t *testing.T) {
	cfg, err := gen.DatasetByName("wikitalk")
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.MustGenerate(gen.Scaled(cfg, 0.1)).Edges()
	d, err := live.New("replay", live.Options{Delta: 600})
	if err != nil {
		t.Fatal(err)
	}
	const delta = 900
	rng := rand.New(rand.NewSource(16))
	for lo := 0; lo < len(edges); {
		hi := min(lo+200+rng.Intn(2500), len(edges))
		if _, err := d.Ingest(edges[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
		got, want := d.Graph(), hare.FromEdges(edges[:hi])
		if err := got.Validate(); err != nil {
			t.Fatalf("version %d: %v", d.Version(), err)
		}
		gotCount, err1 := hare.Count(got, delta)
		wantCount, err2 := hare.Count(want, delta)
		if err1 != nil || err2 != nil || !gotCount.Matrix.Equal(&wantCount.Matrix) {
			t.Fatalf("version %d (%d edges): Count diverges from batch (%v, %v)", d.Version(), hi, err1, err2)
		}
		gotStar, err1 := hare.CountStar4(got, delta)
		wantStar, err2 := hare.CountStar4(want, delta)
		if err1 != nil || err2 != nil || gotStar != wantStar {
			t.Fatalf("version %d (%d edges): CountStar4 %v, batch %v (%v, %v)", d.Version(), hi, gotStar, wantStar, err1, err2)
		}
	}
	if st := d.Stats(); st.SnapshotBuilds != st.Ingests {
		t.Fatalf("%d snapshot builds for %d versions read", st.SnapshotBuilds, st.Ingests)
	}
}

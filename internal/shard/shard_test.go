package shard

// Unit tests for the scatter/gather building blocks: the deterministic
// partitioner and the idempotent gather —
// including the delivery anomalies the retry/hedge layer can produce
// (reordering, duplicates) and the loud-incomplete contract.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hare/internal/engine"
	"hare/internal/gen"
	"hare/internal/higher"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

func TestRangesProperties(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := 1; k <= 7; k++ {
			rs := Ranges(n, k)
			if n == 0 {
				if rs != nil {
					t.Fatalf("Ranges(0, %d) = %v, want nil", k, rs)
				}
				continue
			}
			wantLen := k
			if k > n {
				wantLen = n
			}
			if len(rs) != wantLen {
				t.Fatalf("Ranges(%d, %d): %d ranges, want %d", n, k, len(rs), wantLen)
			}
			lo, minSz, maxSz := 0, n, 0
			for _, r := range rs {
				if r.Lo != lo {
					t.Fatalf("Ranges(%d, %d): gap at %d (got lo %d)", n, k, lo, r.Lo)
				}
				sz := r.Hi - r.Lo
				if sz <= 0 {
					t.Fatalf("Ranges(%d, %d): empty range %v", n, k, r)
				}
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				lo = r.Hi
			}
			if lo != n {
				t.Fatalf("Ranges(%d, %d): covers [0, %d), want [0, %d)", n, k, lo, n)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("Ranges(%d, %d): imbalance %d vs %d", n, k, minSz, maxSz)
			}
		}
	}
	if Ranges(5, 0) != nil || Ranges(-1, 3) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
}

func shardTestGraph(t testing.TB) *temporal.Graph {
	t.Helper()
	cfg, err := gen.DatasetByName("collegemsg")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Scaled(cfg, 0.03))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGatherIdempotentStar4 feeds a star4 gather its partials reordered
// and duplicated — the retry/hedge anomalies — and checks the merged
// counter equals the full-range count and that first-write-wins holds.
func TestGatherIdempotentStar4(t *testing.T) {
	g := shardTestGraph(t)
	const delta = temporal.Timestamp(600)
	const shards = 4
	full := higher.CountStar4(g, delta, higher.Options{Workers: 2})

	rs := Ranges(g.NumIncidences(), shards)
	parts := make([]*Partial, len(rs))
	for i, r := range rs {
		c, _ := higher.CountStar4Range(g, delta, higher.Options{Workers: 2}, r.Lo, r.Hi)
		parts[i] = &Partial{Proto: ProtoVersion, Kind: server.KindStar4, Shard: i, Cells: c[:]}
	}

	// Delivery order: shuffled, with every partial delivered twice and a
	// poisoned duplicate (same shard index, corrupt counter) interleaved —
	// the gather must keep the first accepted partial.
	rng := rand.New(rand.NewSource(7))
	order := append(append([]int{}, rng.Perm(len(parts))...), rng.Perm(len(parts))...)
	gather := NewGather(server.KindStar4, len(parts))
	if gather.Complete() {
		t.Fatal("fresh gather reports complete")
	}
	seen := map[int]bool{}
	for _, i := range order {
		p := parts[i]
		if seen[i] {
			bad := slices.Clone(parts[i].Cells)
			bad[0] += 999 // a poisoned late duplicate must be dropped
			p = &Partial{Proto: ProtoVersion, Kind: server.KindStar4, Shard: i, Cells: bad}
		}
		seen[i] = true
		if err := gather.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if !gather.Complete() {
		t.Fatalf("gather incomplete, missing %v", gather.Missing())
	}
	cells, err := gather.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if got := higher.Star4Counter(cells); got != full {
		t.Fatalf("merged star4 counter diverges from full-range count:\n got %v\nwant %v", got, full)
	}

	// Structural rejects.
	if err := gather.Add(nil); err == nil {
		t.Error("nil partial accepted")
	}
	if err := gather.Add(&Partial{Kind: server.KindPath4, Shard: 0}); err == nil {
		t.Error("wrong-kind partial accepted")
	}
	if err := gather.Add(&Partial{Kind: server.KindStar4, Shard: len(parts)}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := gather.Add(&Partial{Kind: server.KindStar4, Shard: 0}); err == nil {
		t.Error("payload-less partial accepted")
	}
	if err := gather.Add(&Partial{Kind: server.KindStar4, Shard: 0, Cells: make([]uint64, 7)}); err == nil {
		t.Error("short cells accepted")
	}
	if err := gather.Add(&Partial{Kind: server.KindStar4, Shard: 0, Cells: make([]uint64, 9)}); err == nil {
		t.Error("long cells accepted")
	}
	if err := NewGather(server.KindSig, 1).Add(&Partial{Kind: server.KindSig, Shard: 0, Cells: make([]uint64, 8)}); err == nil {
		t.Error("cells accepted by a sig gather")
	}
}

// TestGatherIncompleteIsLoud checks a merge with missing shards fails by
// naming them instead of returning a silently partial counter.
func TestGatherIncompleteIsLoud(t *testing.T) {
	gather := NewGather(server.KindPath4, 3)
	var c higher.PathCounter
	if err := gather.Add(&Partial{Proto: ProtoVersion, Kind: server.KindPath4, Shard: 1, Cells: c[:]}); err != nil {
		t.Fatal(err)
	}
	if _, err := gather.Sum(); err == nil {
		t.Fatal("incomplete merge succeeded")
	} else if want := "missing shards [0 2]"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the holes (%q)", err, want)
	}
}

// TestGatherMergeSigBitIdentical is the distributed-ensemble proof at the
// merge layer: raw sample matrices split across shard ranges, delivered
// shuffled with duplicates, must fold into a report bit-identical to a
// local Ensemble.Run — floats included, because the Welford chunk tree is
// rebuilt in sample-index order regardless of delivery order.
func TestGatherMergeSigBitIdentical(t *testing.T) {
	g := shardTestGraph(t)
	const delta = temporal.Timestamp(600)
	const samples, seed = 11, int64(42)
	for _, model := range []nullmodel.Model{nullmodel.TimeShuffle, nullmodel.DegreeRewire} {
		ens := nullmodel.Ensemble{Model: model, Samples: samples, Seed: seed, Workers: 3}
		want, err := ens.Run(g, delta)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			rs := Ranges(samples, shards)
			parts := make([]*Partial, len(rs))
			for i, r := range rs {
				ms, err := nullmodel.SampleMatrices(g, delta, model, seed, r.Lo, r.Hi, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = &Partial{Proto: ProtoVersion, Kind: server.KindSig, Shard: i, Sig: ms}
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			gather := NewGather(server.KindSig, len(parts))
			for _, i := range append(rng.Perm(len(parts)), rng.Perm(len(parts))...) {
				if err := gather.Add(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			real := engine.Count(g, delta, engine.Options{Workers: 2}).ToMatrix()
			got, err := gather.MergeSig(model, real, want.Workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Real != want.Real || got.Trials != want.Trials {
				t.Fatalf("model %v shards %d: real/trials diverge", model, shards)
			}
			if got.Mean != want.Mean || got.Std != want.Std ||
				got.PUpper != want.PUpper || got.PLower != want.PLower {
				t.Fatalf("model %v shards %d: statistics not bit-identical to local Ensemble.Run", model, shards)
			}
		}
	}
}

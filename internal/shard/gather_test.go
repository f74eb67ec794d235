package shard_test

// The count merge against the library, from outside the package: the root
// package's single-node backend is a shard coordinator, so an internal test
// of this package cannot import it.

import (
	"math/rand"
	"testing"

	"hare"
	"hare/internal/engine"
	"hare/internal/gen"
	"hare/internal/server"
	"hare/internal/shard"
	"hare/internal/temporal"
)

func mergeTestGraph(t testing.TB) *temporal.Graph {
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

// TestGatherMergeCount merges raw count partials over incidence ranges,
// delivered shuffled, into the library's answer for the same request: the
// matrix (converted once, after the sum), the motif= restriction and the
// workers/threshold echo.
func TestGatherMergeCount(t *testing.T) {
	g := mergeTestGraph(t)
	const delta = temporal.Timestamp(600)
	rs := shard.Ranges(g.NumIncidences(), 3)
	parts := make([]*shard.Partial, len(rs))
	for i, r := range rs {
		c := engine.CountRange(g, delta, engine.Options{Workers: 2}, r.Lo, r.Hi)
		parts[i] = &shard.Partial{Proto: shard.ProtoVersion, Kind: server.KindCount, Shard: i, Cells: c.Cells()}
	}
	for _, tc := range []struct {
		req  server.Request
		opts []hare.Option
	}{
		{server.Request{Workers: 1}, []hare.Option{hare.WithWorkers(1)}},
		{server.Request{Workers: 3}, []hare.Option{hare.WithWorkers(3)}},
		{server.Request{Workers: 1, Thrd: 7, ThrdSet: true}, []hare.Option{hare.WithWorkers(1), hare.WithDegreeThreshold(7)}},
		{server.Request{Workers: 2, Motif: "M26"}, []hare.Option{hare.WithWorkers(2), hare.WithOnly(hare.CategoryTri)}},
		{server.Request{Workers: 2, Motif: "M11"}, []hare.Option{hare.WithWorkers(2), hare.WithOnly(hare.CategoryStar)}},
	} {
		want, err := hare.Count(g, delta, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		gather := shard.NewGather(server.KindCount, len(parts))
		for _, i := range rand.New(rand.NewSource(5)).Perm(len(parts)) {
			if err := gather.Add(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		tc.req.Kind, tc.req.Delta = server.KindCount, int64(delta)
		ans, err := gather.MergeCount(g, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Matrix != want.Matrix || ans.Workers != want.Workers || ans.DegreeThreshold != want.DegreeThreshold {
			t.Fatalf("%+v: merged workers %d thrd %d, library workers %d thrd %d (matrices equal: %v)",
				tc.req, ans.Workers, ans.DegreeThreshold, want.Workers, want.DegreeThreshold, ans.Matrix == want.Matrix)
		}
	}
}

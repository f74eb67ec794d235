package shard

// Fuzzers for the two wire decoders: the worker's SubRequest decode plus
// validate, and the coordinator's Partial decode plus gather and merge.
// Arbitrary bytes must be rejected with an error, never a panic, and what
// is accepted must satisfy the invariants the other side relies on.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hare/internal/approx"
	"hare/internal/engine"
	"hare/internal/higher"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/server"
	"hare/internal/temporal"
)

// fuzzGraph is a small graph with stars, pairs and triangles at δ = 5.
func fuzzGraph() *temporal.Graph {
	return temporal.FromEdges([]temporal.Edge{
		{From: 0, To: 1, Time: 1}, {From: 1, To: 0, Time: 2}, {From: 0, To: 2, Time: 3},
		{From: 2, To: 1, Time: 4}, {From: 3, To: 0, Time: 5}, {From: 0, To: 1, Time: 6},
		{From: 1, To: 2, Time: 7}, {From: 2, To: 0, Time: 8},
	})
}

func FuzzSubRequest(f *testing.F) {
	g := fuzzGraph()
	for _, req := range []server.Request{
		{Kind: server.KindCount, Motif: "M26", Thrd: 4, ThrdSet: true},
		{Kind: server.KindStar4},
		{Kind: server.KindPath4},
		{Kind: server.KindSig, Model: "timeshuffle", Samples: 9, Seed: 3},
		{Kind: server.KindQuery, Spec: "a->b; b->c; c->d"},
		// One sampled request per family with an approximate mode (a
		// worker refuses the star4 one when it computes, not here).
		{Kind: server.KindStar4, Epsilon: 0.1, EpsilonSet: true, Seed: 3},
		{Kind: server.KindPath4, Epsilon: 0.1, EpsilonSet: true, Conf: 0.9, ConfSet: true, Seed: 3},
		{Kind: server.KindQuery, Spec: "a->b; b->c; c->d", Epsilon: 0.2, EpsilonSet: true, Samples: 7},
	} {
		req.Dataset, req.Delta, req.DeltaSet, req.Workers = "d", 5, true, 2
		s := sub(req, g, 1, 3, 4, 9)
		data, err := json.Marshal(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"proto":1,"kind":"count","dataset":"d","shard":0,"shards":1}`))
	f.Add([]byte(`{"proto":2,"kind":"query","dataset":"d","shard":0,"shards":1,"spec":"a->b; b->c; c->a"}`))
	f.Add([]byte(`{"proto":3,"kind":"star4","dataset":"d","shard":0,"shards":1,"lo":5,"hi":2}`))
	f.Add([]byte(`{"proto":4,"kind":"path4approx","dataset":"d","shard":0,"shards":1,"epsilon":0.1}`))
	f.Add([]byte(`{"proto":5,"kind":"count","dataset":"d","shard":0,"shards":1,"seed":4}`))
	f.Add([]byte(`{"proto":5,"kind":"nope","dataset":"d","shard":2,"shards":1,"delta":-1}`))
	f.Add([]byte(`{"proto":5,"kind":"path4","dataset":"d","delta":5,"delta_set":true,"shard":0,"shards":1,"lo":0,"hi":9}`))
	f.Add([]byte(`{"proto":6,"kind":"count","dataset":"d","shard":0,"shards":1,"seed":4}`))
	f.Add([]byte(`{"proto":6,"kind":"nope","dataset":"d","shard":2,"shards":1,"delta":-1}`))
	f.Add([]byte(`{"proto":7,"kind":"count","dataset":"d","shard":0,"shards":1,"seed":4}`))
	f.Add([]byte(`{"proto":7,"kind":"nope","dataset":"d","shard":2,"shards":1,"delta":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s SubRequest
		if json.NewDecoder(bytes.NewReader(data)).Decode(&s) != nil { // the worker's decode
			return
		}
		if s.validate() != nil {
			return
		}
		if s.Proto != ProtoVersion || s.Dataset == "" || s.Delta < 0 || !s.DeltaSet || s.Shard < 0 || s.Shard >= s.Shards {
			t.Fatalf("validate accepted %+v", s)
		}
		if s.Lo < 0 || s.Hi < s.Lo {
			t.Fatalf("validate accepted the range [%d, %d) of a %s sub-request", s.Lo, s.Hi, s.Kind)
		}
		// Normalize is idempotent: an accepted sub-request is a fixed point
		// of validate.
		again := s
		if err := again.validate(); err != nil || again != s {
			t.Fatalf("validating %+v again gave %+v (%v)", s, again, err)
		}
		// What the worker accepts, the coordinator's encoding reproduces.
		out, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		var back SubRequest
		if err := json.Unmarshal(out, &back); err != nil || back != s {
			t.Fatalf("round trip changed %+v into %+v (%v)", s, back, err)
		}
	})
}

func FuzzPartial(f *testing.F) {
	g := fuzzGraph()
	const delta = 5
	plan, err := approx.NewPlan(g, approx.PathKernel{}, approx.Options{Epsilon: 0.2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	// A sampled partial merges through a sampled gather.
	sampled := Partial{Proto: ProtoVersion, Kind: server.KindPath4,
		Approx: approx.EstimateStrata(g, approx.PathKernel{}, delta, plan, 1, 0, len(plan.Strata))}
	gather := gatherFor(server.Request{Kind: server.KindPath4, EpsilonSet: true}, 1)
	if err := gather.Add(&sampled); err != nil {
		f.Fatal(err)
	}
	if _, err := gather.MergeApprox(plan); err != nil {
		f.Fatal(err)
	}
	star4, _ := higher.CountStar4Range(g, delta, higher.Options{Workers: 1}, 0, g.NumIncidences())
	path4 := higher.CountPath4(g, delta, higher.Options{Workers: 1})
	for _, p := range []Partial{
		{Kind: server.KindCount, Cells: engine.CountRange(g, delta, engine.Options{Workers: 1}, 0, 9).Cells()},
		{Kind: server.KindStar4, Cells: star4[:]},
		{Kind: server.KindPath4, Cells: path4[:]},
		{Kind: server.KindQuery, Cells: []uint64{7}},
		{Kind: server.KindSig, Sig: []motif.Matrix{{}, {{1, 2}}}},
		sampled,
	} {
		p.Proto = ProtoVersion
		data, err := json.Marshal(&p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"proto":5,"kind":"count","shard":0,"cells":[1]}`))
	f.Add([]byte(`{"proto":4,"kind":"path4approx","shard":0,"approx":[{"draws":1,"sum":[1],"mean":[],"m2":[2]}]}`))
	f.Add([]byte(`{"proto":5,"kind":"query","shard":0,"approx":[{"draws":1,"sum":[1],"mean":[],"m2":[2]}]}`))
	f.Add([]byte(`{"proto":6,"kind":"count","shard":0,"cells":[1]}`))
	f.Add([]byte(`{"proto":6,"kind":"query","shard":0,"approx":[{"draws":1,"sum":[1],"mean":[],"m2":[2]}]}`))
	f.Add([]byte(`{"proto":7,"kind":"count","shard":0,"cells":[1]}`))
	f.Add([]byte(`{"proto":7,"kind":"query","shard":0,"approx":[{"draws":1,"sum":[1],"mean":[],"m2":[2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Partial
		if json.Unmarshal(data, &p) != nil { // the coordinator's decode
			return
		}
		// An exact and a sampled gather of a one-shard plan of its kind
		// must each accept the partial for its own shard, or refuse it
		// with an error.
		accepted := false
		for _, sampled := range []bool{false, true} {
			gather := gatherFor(server.Request{Kind: p.Kind, EpsilonSet: sampled}, 1)
			if gather.Add(&p) != nil {
				continue
			}
			accepted = true
			if p.Shard != 0 || !gather.Complete() {
				t.Fatalf("gather accepted shard %d into a one-shard plan", p.Shard)
			}
			if w, sums := cellWidth[p.Kind]; sums && !sampled && len(p.Cells) != w {
				t.Fatalf("gather accepted %d cells for a %s partial of width %d", len(p.Cells), p.Kind, w)
			}
			var err error
			switch {
			case sampled:
				_, _ = gather.MergeApprox(plan) // moments that do not fit the plan are an error
			case p.Kind == server.KindCount:
				_, err = gather.MergeCount(g, server.Request{Kind: server.KindCount, Delta: delta, Workers: 2, Motif: "M26"})
			case p.Kind == server.KindStar4, p.Kind == server.KindPath4, p.Kind == server.KindQuery:
				_, err = gather.Sum()
			case p.Kind == server.KindSig:
				_, err = gather.MergeSig(nullmodel.TimeShuffle, motif.Matrix{}, 1)
			default:
				t.Fatalf("gather accepted a partial of unknown kind %q", p.Kind)
			}
			if err != nil {
				t.Fatalf("complete %s gather failed to merge: %v", p.Kind, err)
			}
		}
		if !accepted {
			return
		}
		// An accepted partial survives the worker's encoding unchanged.
		out, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		var back Partial
		if err := json.Unmarshal(out, &back); err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed %+v into %+v (%v)", p, back, err)
		}
	})
}

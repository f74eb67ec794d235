package hare_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hare"
	"hare/internal/gen"
	"hare/internal/nullmodel"
	"hare/internal/server"
)

func serveGraph(t *testing.T) *hare.Graph {
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

// TestLocalBackendMatchesLibrary checks the single-node backend's eight
// methods against the public calls for the same request: every count bit
// for bit, with the count's workers and degree-threshold echo, at 1, 2 and
// 4 workers (possibly more than the CPUs: the hint is clamped, the echo is
// not).
func TestLocalBackendMatchesLibrary(t *testing.T) {
	g := serveGraph(t)
	be := hare.LocalBackend()
	ctx := context.Background()
	const delta = 600
	specs := []string{"a->b, a->c, a->d", "x->y, y->z, z->x", "a->b, b->c, c->d"}
	for _, w := range []int{1, 2, 4} {
		req := func(kind server.Kind) server.Request {
			return server.Request{Kind: kind, Dataset: "d", Delta: delta, DeltaSet: true, Workers: w}
		}
		for _, tc := range []struct {
			thrd  int
			motif string
			opts  []hare.Option
		}{
			{opts: []hare.Option{hare.WithWorkers(w)}},
			{thrd: 3, opts: []hare.Option{hare.WithWorkers(w), hare.WithDegreeThreshold(3)}},
			{motif: "M26", opts: []hare.Option{hare.WithWorkers(w), hare.WithOnly(hare.CategoryTri)}},
			{motif: "M11", opts: []hare.Option{hare.WithWorkers(w), hare.WithOnly(hare.CategoryStar)}},
		} {
			r := req(server.KindCount)
			r.Thrd, r.ThrdSet, r.Motif = tc.thrd, tc.thrd != 0, tc.motif
			got, err := be.Count(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hare.Count(g, delta, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got.Matrix != want.Matrix || got.Workers != want.Workers || got.DegreeThreshold != want.DegreeThreshold {
				t.Fatalf("workers %d thrd %d motif %q: backend workers %d thrd %d, library workers %d thrd %d (matrices equal: %v)",
					w, tc.thrd, tc.motif, got.Workers, got.DegreeThreshold, want.Workers, want.DegreeThreshold, got.Matrix == want.Matrix)
			}
		}

		s4, err := be.Star4(ctx, g, req(server.KindStar4))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := hare.CountStar4(g, delta, hare.WithWorkers(w)); s4 != want {
			t.Fatalf("workers %d: star4 diverges", w)
		}
		p4, err := be.Path4(ctx, g, req(server.KindPath4))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := hare.CountPath4(g, delta, hare.WithWorkers(w)); p4 != want {
			t.Fatalf("workers %d: path4 diverges", w)
		}

		r := req(server.KindSig)
		r.Model, r.Samples, r.Seed = "degree-rewire", 6, 3
		rep, err := be.Significance(ctx, g, r)
		if err != nil {
			t.Fatal(err)
		}
		wantRep, err := hare.Significance(g, delta, hare.SignificanceOptions{Model: hare.NullDegreeRewire, Trials: 6, Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if *rep != *wantRep {
			t.Fatalf("workers %d: significance report diverges", w)
		}

		ao := hare.ApproxOptions{Epsilon: 0.1, Confidence: 0.9, Seed: 7, Workers: w}
		r = req(server.KindStar4)
		r.Epsilon, r.EpsilonSet, r.Conf, r.ConfSet, r.Seed = ao.Epsilon, true, ao.Confidence, true, ao.Seed
		a, err := be.Star4Approx(ctx, g, r)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := hare.CountStar4Approx(g, delta, ao); !reflect.DeepEqual(a, want) {
			t.Fatalf("workers %d: star4 approx diverges:\n got %+v\nwant %+v", w, a, want)
		}
		r.Kind = server.KindPath4
		if a, err = be.Path4Approx(ctx, g, r); err != nil {
			t.Fatal(err)
		}
		if want, _ := hare.CountPath4Approx(g, delta, ao); !reflect.DeepEqual(a, want) {
			t.Fatalf("workers %d: path4 approx diverges:\n got %+v\nwant %+v", w, a, want)
		}

		for _, text := range specs {
			spec, err := hare.ParseSpec(text)
			if err != nil {
				t.Fatal(err)
			}
			r := req(server.KindQuery)
			r.Spec = spec.Canonical()
			n, err := be.Query(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := hare.CountMotif(g, spec, delta, hare.WithWorkers(w)); n != want {
				t.Fatalf("workers %d spec %q: query %d, library %d", w, text, n, want)
			}
			r.Epsilon, r.EpsilonSet, r.Conf, r.ConfSet, r.Seed = ao.Epsilon, true, ao.Confidence, true, ao.Seed
			a, err := be.QueryApprox(ctx, g, r)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := hare.CountMotifApprox(g, spec, delta, ao); !reflect.DeepEqual(a, want) {
				t.Fatalf("workers %d spec %q: query approx diverges:\n got %+v\nwant %+v", w, text, a, want)
			}
		}
	}
}

// TestSignificanceSampleLimit: an ensemble over nullmodel.MaxSamples is an
// error from the library and a 400 from the served path, never an attempt
// to hold the sample matrices.
func TestSignificanceSampleLimit(t *testing.T) {
	g := hare.FromEdges([]hare.Edge{{From: 0, To: 1, Time: 1}, {From: 1, To: 2, Time: 2}, {From: 2, To: 0, Time: 3}})
	if _, err := hare.Significance(g, 10, hare.SignificanceOptions{Trials: nullmodel.MaxSamples + 1}); err == nil {
		t.Fatal("Trials over the limit accepted")
	}
	rep, err := hare.Significance(g, 10, hare.SignificanceOptions{Trials: 3})
	if err != nil || rep.Trials != 3 {
		t.Fatalf("3 trials: %v, %v", rep, err)
	}

	srv, err := hare.NewServer(hare.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterGraph("g", "three edges", g); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, tc := range []struct {
		samples string
		status  int
	}{
		{"10000000000", http.StatusBadRequest},
		{strconv.Itoa(nullmodel.MaxSamples + 1), http.StatusBadRequest},
		{strconv.Itoa(nullmodel.MaxSamples), http.StatusOK},
	} {
		resp, err := http.Get(hs.URL + "/v1/sig?dataset=g&delta=10&samples=" + tc.samples)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("samples=%s: HTTP %d (%s), want %d", tc.samples, resp.StatusCode, body, tc.status)
		}
		if tc.status == http.StatusBadRequest && !strings.Contains(string(body), "samples") {
			t.Fatalf("samples=%s: error %s does not name samples", tc.samples, body)
		}
	}
}

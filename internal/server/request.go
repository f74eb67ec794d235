package server

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"hare/internal/approx"
	"hare/internal/motif"
	"hare/internal/nullmodel"
	"hare/internal/query"
)

// Kind names a query family. Each kind maps to one /v1 endpoint and one
// Backend method.
type Kind string

// Query kinds.
const (
	KindCount Kind = "count"
	KindStar4 Kind = "star4"
	KindPath4 Kind = "path4"
	KindSig   Kind = "sig"
	KindQuery Kind = "query"
)

// Request is the canonical form of one query. The CLI, the HTTP handlers
// and the result cache all speak this type: handlers parse URL queries into
// it, the cache keys on its Key(), and the daemon's load generator builds
// the same URLs from it. Its JSON form is the request half of a shard
// sub-request (docs/SHARDING.md).
//
// Workers and Thrd are scheduling hints: every counting algorithm in hare
// is exact and bit-identical at any worker count or degree threshold, so
// they steer resource use but never the answer — and therefore do not
// participate in the cache key.
type Request struct {
	Kind    Kind   `json:"kind"`
	Dataset string `json:"dataset"`
	// Delta is the motif window δ in the dataset's time units. The library
	// accepts δ=0 (only simultaneous edges form motifs), so an explicit
	// delta=0 is honored; only an *absent* delta defaults to 600 — DeltaSet
	// records which was meant.
	Delta    int64 `json:"delta"`
	DeltaSet bool  `json:"delta_set,omitempty"`
	// Motif restricts a count query to one motif's category and names the
	// cell to surface as the scalar "count" field (count kind only).
	Motif string `json:"motif,omitempty"`
	// Workers is the per-job parallelism hint, clamped to the worker budget.
	// 0 asks admission for a share fixed when the job arrives:
	// max(1, budget / (jobs admitted + jobs waiting + 1)) (see Admission).
	Workers int `json:"workers,omitempty"`
	// Thrd overrides HARE's degree threshold when ThrdSet (0 = auto).
	Thrd    int  `json:"thrd,omitempty"`
	ThrdSet bool `json:"thrd_set,omitempty"`
	// Significance options (sig kind only).
	Model   string `json:"model,omitempty"`
	Samples int    `json:"samples,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Spec is the motif spec of a query-kind request, in the compact text
	// form or the JSON form (docs/QUERY.md). Normalize rewrites it to the
	// canonical text, so isomorphic specs share one cache key.
	Spec string `json:"spec,omitempty"`
	// Approximate-mode knobs (star4, path4 and query kinds; docs/APPROX.md).
	// An epsilon parameter switches the request to the sampling estimator;
	// EpsilonSet records that the switch happened (epsilon, confidence, seed
	// and samples then join the cache key — they change the answer). Exact
	// requests leave every approx field zero and their keys byte-unchanged.
	// Samples and Seed are shared with the sig kind: samples pins the draw
	// budget (overriding epsilon sizing), seed fixes the streams.
	Epsilon    float64 `json:"epsilon,omitempty"`
	EpsilonSet bool    `json:"epsilon_set,omitempty"`
	Conf       float64 `json:"conf,omitempty"`
	ConfSet    bool    `json:"conf_set,omitempty"`
}

// Normalize applies defaults and validates the request; the public
// endpoints run it on every parsed query and a shard worker on every
// sub-request, so both ends accept exactly the same requests. It is
// idempotent: a normalized request normalizes to itself. It returns the
// parsed motif label (zero when unrestricted).
func (r *Request) Normalize() (motif.Label, error) {
	if r.Dataset == "" {
		return motif.Label{}, fmt.Errorf("missing dataset")
	}
	var approxMode bool // the kinds with an approximate mode
	switch r.Kind {
	case KindStar4, KindPath4, KindQuery:
		approxMode = true
	case KindCount, KindSig:
	default:
		return motif.Label{}, fmt.Errorf("unknown kind %q", r.Kind)
	}
	if !r.DeltaSet && r.Delta == 0 {
		r.Delta = 600
	}
	r.DeltaSet = true // canonical: explicit delta=0 and defaulted 600 both concrete now
	if r.Delta < 0 {
		return motif.Label{}, fmt.Errorf("delta must be >= 0 (got %d)", r.Delta)
	}
	if r.Workers < 0 {
		return motif.Label{}, fmt.Errorf("workers must be >= 0 (got %d)", r.Workers)
	}
	if r.ThrdSet && r.Thrd == 0 {
		// Explicit thrd=0 means "auto", exactly like leaving it unset (the
		// library's WithDegreeThreshold(0) contract) — canonicalize so every
		// consumer (backend options, shard scatter, response echo) agrees.
		r.ThrdSet = false
	}
	// A kind reads only its own parameters: one it would ignore is an
	// error, never a silent no-op. The scheduling hints (workers, thrd)
	// never change an answer, so every kind accepts them. The estimator
	// knobs (knob) are read in approximate mode, and samples and seed by
	// sig too.
	seeded := r.Kind == KindSig || r.EpsilonSet
	for _, p := range []struct {
		name            string
		set, read, knob bool
	}{
		{"motif", r.Motif != "", r.Kind == KindCount, false},
		{"spec", r.Spec != "", r.Kind == KindQuery, false},
		{"model", r.Model != "", r.Kind == KindSig, false},
		{"epsilon", r.EpsilonSet, approxMode, false},
		{"conf", r.ConfSet, r.EpsilonSet, true},
		{"samples", r.Samples != 0, seeded, true},
		{"seed", r.Seed != 0, seeded, true},
	} {
		if !p.set || p.read {
			continue
		}
		if approxMode && p.knob {
			return motif.Label{}, fmt.Errorf("%s does not apply to %s requests without epsilon", p.name, r.Kind)
		}
		return motif.Label{}, fmt.Errorf("%s does not apply to %s requests", p.name, r.Kind)
	}
	var label motif.Label
	if r.Motif != "" {
		var err error
		if label, err = motif.ParseLabel(r.Motif); err != nil {
			return motif.Label{}, err
		}
	}
	if r.Kind == KindQuery {
		if r.Spec == "" {
			return motif.Label{}, fmt.Errorf("missing spec")
		}
		s, err := parseSpecParam(r.Spec)
		if err != nil {
			return motif.Label{}, err
		}
		// Canonical rewrite: isomorphic specs (and the text vs JSON forms)
		// collapse to one Key(), so the LRU/singleflight layer works
		// unchanged for the query kind.
		r.Spec = s.Canonical()
	}
	if r.EpsilonSet {
		if !(r.Epsilon > 0 && r.Epsilon < 1) {
			return motif.Label{}, fmt.Errorf("epsilon must be in (0, 1) (got %v)", r.Epsilon)
		}
		if !r.ConfSet {
			// Canonical: the default confidence is concrete in the request
			// (and its cache key), like the defaulted delta above.
			r.Conf, r.ConfSet = approx.DefaultConfidence, true
		}
		if !(r.Conf > 0 && r.Conf < 1) {
			return motif.Label{}, fmt.Errorf("conf must be in (0, 1) (got %v)", r.Conf)
		}
		if r.Samples < 0 {
			return motif.Label{}, fmt.Errorf("samples must be >= 0 (got %d)", r.Samples)
		}
	}
	if r.Kind == KindSig {
		if r.Model == "" {
			r.Model = nullmodel.TimeShuffle.String()
		}
		if _, err := nullmodel.ParseModel(r.Model); err != nil {
			return motif.Label{}, err
		}
		if r.Samples == 0 {
			r.Samples = nullmodel.DefaultSamples
		}
		if r.Samples < 1 || r.Samples > nullmodel.MaxSamples {
			return motif.Label{}, fmt.Errorf("samples must be in [1, %d] (got %d)", nullmodel.MaxSamples, r.Samples)
		}
	}
	return label, nil
}

// categoryKey is the cache-key fragment for a count request's motif
// restriction. Pair and star motifs are counted together (they share one
// kernel), so their categories canonicalize to one key and one cached
// matrix serves both.
func categoryKey(m string) string {
	if m == "" {
		return "all"
	}
	l, err := motif.ParseLabel(m)
	if err != nil {
		// Normalize guarantees validity; swallowing the error here would
		// silently poison the unrestricted "all" cache entry with a
		// category-restricted matrix. Fail loudly instead.
		panic(fmt.Sprintf("server: categoryKey(%q) on unvalidated motif: %v", m, err))
	}
	switch l.Category() {
	case motif.CategoryTri:
		return "tri"
	default:
		return "starpair"
	}
}

// Key returns the canonical cache key: every field that can change the
// answer, and none that cannot. Two requests with equal keys are satisfied
// by one computation. Approx-mode keys append every estimator knob; exact
// keys are byte-for-byte what they were before the approx tier existed, so
// exact entries cached by older clients stay addressable.
func (r *Request) Key() string {
	switch r.Kind {
	case KindSig:
		return fmt.Sprintf("sig|%s|%d|%s|%d|%d", r.Dataset, r.Delta, r.Model, r.Samples, r.Seed)
	case KindCount:
		return fmt.Sprintf("count|%s|%d|%s", r.Dataset, r.Delta, categoryKey(r.Motif))
	case KindQuery:
		// r.Spec is canonical after Normalize, so every isomorphic spelling
		// of a motif shares one cache entry.
		return fmt.Sprintf("query|%s|%d|%s", r.Dataset, r.Delta, r.Spec) + r.approxKey()
	default:
		return fmt.Sprintf("%s|%s|%d", r.Kind, r.Dataset, r.Delta) + r.approxKey()
	}
}

// approxKey is the estimator-knob key fragment: empty in exact mode (so
// exact keys never change), every answer-shaping knob otherwise.
func (r *Request) approxKey() string {
	if !r.EpsilonSet {
		return ""
	}
	return fmt.Sprintf("|eps%g|conf%g|seed%d|m%d", r.Epsilon, r.Conf, r.Seed, r.Samples)
}

// parseSpecParam accepts both spec forms in one parameter: inputs starting
// with "{" parse as the JSON form, everything else as the compact text form.
func parseSpecParam(s string) (*query.Spec, error) {
	if strings.HasPrefix(strings.TrimSpace(s), "{") {
		return query.ParseSpecJSON([]byte(s))
	}
	return query.ParseSpec(s)
}

// ParseRequest decodes a query string into a normalized Request.
func ParseRequest(kind Kind, q url.Values) (Request, motif.Label, error) {
	r := Request{
		Kind:    kind,
		Dataset: q.Get("dataset"),
		Motif:   q.Get("motif"),
		Model:   q.Get("model"),
		Spec:    q.Get("spec"),
	}
	var err error
	if v := q.Get("delta"); v != "" {
		if r.Delta, err = strconv.ParseInt(v, 10, 64); err != nil {
			return r, motif.Label{}, fmt.Errorf("delta: %v", err)
		}
		r.DeltaSet = true
	}
	w, err := intParam(q, "workers")
	if err != nil {
		return r, motif.Label{}, err
	}
	r.Workers = int(w)
	if v := q.Get("thrd"); v != "" {
		t, err := strconv.Atoi(v)
		if err != nil {
			return r, motif.Label{}, fmt.Errorf("thrd: %v", err)
		}
		r.Thrd, r.ThrdSet = t, true
	}
	s, err := intParam(q, "samples")
	if err != nil {
		return r, motif.Label{}, err
	}
	r.Samples = int(s)
	if r.Seed, err = intParam(q, "seed"); err != nil {
		return r, motif.Label{}, err
	}
	if v := q.Get("epsilon"); v != "" {
		if r.Epsilon, err = strconv.ParseFloat(v, 64); err != nil {
			return r, motif.Label{}, fmt.Errorf("epsilon: %v", err)
		}
		r.EpsilonSet = true
	}
	if v := q.Get("conf"); v != "" {
		if r.Conf, err = strconv.ParseFloat(v, 64); err != nil {
			return r, motif.Label{}, fmt.Errorf("conf: %v", err)
		}
		r.ConfSet = true
	}
	label, err := r.Normalize()
	return r, label, err
}

func intParam(q url.Values, name string) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return n, nil
}

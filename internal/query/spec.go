// Package query is the generalized temporal-motif query compiler: it turns
// a small declarative motif *spec* — an ordered, directed 3-edge pattern
// over at most four node variables — into a counting *plan* that runs over
// the columnar CSR core with the counting routines and the scheduling of the
// hand-tuned counters (a star or pair spec is a cell of CountStar4Range's
// counters, a triangle spec three cells of FAST-Tri's, a path spec one cell
// of CountPath4Range's; see Compile), and the same
// exactness bar: plans are exact, bit-identical at any worker count, and
// range-splittable along their pivot for the scatter/gather tier.
//
// A spec names the paper's δ-temporal motif semantics directly (Paranjape
// et al., WSDM'17 Def. 1, as used throughout this repository): the i-th
// listed edge is the i-th edge in temporal (EdgeID) order, node variables
// bind injectively to distinct graph nodes, and the whole instance spans at
// most δ. The count of a spec is the number of (edge triple, variable
// assignment) pairs; because a connected spec in which every variable
// occurs has no order-preserving automorphisms, this equals the number of
// motif instances.
//
// Specs close ROADMAP item 4: star4 and path4 were each a hand-written PR
// through the hot path, while a new shape is now a query —
//
//	a->b; b->c; c->a     temporal 3-cycle (M26's cyclic closure)
//	a->b; a->c; a->d     4-node out-star, one of CountStar4's 8 cells
//	a->b; b->c; c->d     4-node forward path, one of CountPath4's 24 classes
//
// compiled, cached under a canonical key, served by /v1/query, and
// scattered across shard workers without touching the counting machinery.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// SpecEdges is the number of edges every spec has: like the rest of this
// repository, queries count 3-edge δ-temporal motifs (the paper's grid and
// its 4-node extensions are all 3-edge families).
const SpecEdges = 3

// MaxNodes bounds the node variables of a spec. With three edges a
// connected pattern has at most four distinct endpoints, which is also the
// largest family the counting tiers serve (4-node stars and paths).
const MaxNodes = 4

// Typed validation errors, matched with errors.Is. ParseSpec and
// ParseSpecJSON never return an untyped validation failure: every rejected
// spec wraps exactly one of these (syntax errors wrap ErrSyntax).
var (
	// ErrSyntax: the text or JSON form could not be parsed at all.
	ErrSyntax = errors.New("query: spec syntax error")
	// ErrEdgeCount: the spec does not have exactly SpecEdges edges.
	ErrEdgeCount = errors.New("query: spec must have exactly 3 edges")
	// ErrSelfLoop: some edge has the same variable at both ends (δ-temporal
	// motifs never contain self-loops; the graph builder drops them).
	ErrSelfLoop = errors.New("query: spec edge is a self-loop")
	// ErrTooManyNodes: the spec uses more than MaxNodes node variables.
	ErrTooManyNodes = errors.New("query: spec exceeds 4 node variables")
	// ErrDisconnected: the spec's edges do not form one connected pattern.
	ErrDisconnected = errors.New("query: spec is disconnected")
)

// SpecEdge is one directed edge of a spec, endpoints given as variable
// indices in [0, NumNodes).
type SpecEdge struct {
	Src, Dst int
}

// Spec is a validated, canonicalized motif spec. Obtain one from ParseSpec
// or ParseSpecJSON; the zero value is not valid. Two specs describe the
// same motif (differ only by variable renaming) exactly when their
// Canonical strings are equal — the property the serving tier's cache key
// rides on.
type Spec struct {
	edges [SpecEdges]SpecEdge
	nodes int
}

// NumNodes returns the number of node variables (2..4).
func (s *Spec) NumNodes() int { return s.nodes }

// Edges returns the ordered directed edges over variable indices; the i-th
// edge is the i-th in temporal order.
func (s *Spec) Edges() [SpecEdges]SpecEdge { return s.edges }

// varName renders variable index i in the canonical a..d alphabet.
func varName(i int) string { return string(rune('a' + i)) }

// Canonical returns the canonical text form: edges in temporal order,
// "src->dst" terms joined by "; ", variables named a..d in canonical
// order. Isomorphic specs (equal up to variable renaming) have equal
// canonical forms, and ParseSpec(s.Canonical()) reproduces s exactly.
func (s *Spec) Canonical() string {
	var b strings.Builder
	for i, e := range s.edges {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(varName(e.Src))
		b.WriteString("->")
		b.WriteString(varName(e.Dst))
	}
	return b.String()
}

// String returns the canonical text form.
func (s *Spec) String() string { return s.Canonical() }

// ParseSpec parses the compact text form: SpecEdges directed edge terms
// "x->y" (or the mirrored sugar "y<-x"), separated by ";" or ",".
// Variable names are letter/digit/underscore words; naming is free-form —
// the spec is canonicalized, so "hub->s1; hub->s2; hub->s3" and
// "a->b; a->c; a->d" are the same spec. Rejections carry typed errors
// (ErrSyntax, ErrEdgeCount, ErrSelfLoop, ErrTooManyNodes,
// ErrDisconnected).
func ParseSpec(text string) (*Spec, error) {
	var srcs, dsts []string
	for _, term := range splitTerms(text) {
		src, dst, err := parseTerm(term)
		if err != nil {
			return nil, err
		}
		srcs, dsts = append(srcs, src), append(dsts, dst)
	}
	return newSpec(srcs, dsts)
}

// splitTerms splits on ';' and ',' and drops blank fields (so a trailing
// separator is tolerated, but an interior empty term is caught by
// parseTerm's caller via the edge count).
func splitTerms(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool { return r == ';' || r == ',' })
	var out []string
	for _, f := range fields {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseTerm parses one "x->y" or "y<-x" edge term.
func parseTerm(term string) (src, dst string, err error) {
	if i := strings.Index(term, "->"); i >= 0 {
		src, dst = term[:i], term[i+2:]
	} else if i := strings.Index(term, "<-"); i >= 0 {
		dst, src = term[:i], term[i+2:]
	} else {
		return "", "", fmt.Errorf("%w: edge term %q has no \"->\"", ErrSyntax, term)
	}
	if src, err = parseVar(src); err != nil {
		return "", "", err
	}
	if dst, err = parseVar(dst); err != nil {
		return "", "", err
	}
	return src, dst, nil
}

// parseVar validates one variable name: a non-empty letter/digit/underscore
// word.
func parseVar(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("%w: empty variable name", ErrSyntax)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
		default:
			return "", fmt.Errorf("%w: variable %q contains %q", ErrSyntax, s, r)
		}
	}
	return s, nil
}

// specJSON is the JSON wire form of a spec: an ordered edge list with named
// variables, mirroring the text form term for term.
type specJSON struct {
	Edges []struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
	} `json:"edges"`
}

// ParseSpecJSON parses the JSON form {"edges":[{"src":"a","dst":"b"},...]},
// with the same validation, canonicalization and typed errors as ParseSpec.
func ParseSpecJSON(data []byte) (*Spec, error) {
	var js specJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	var srcs, dsts []string
	for _, e := range js.Edges {
		src, err := parseVar(e.Src)
		if err != nil {
			return nil, err
		}
		dst, err := parseVar(e.Dst)
		if err != nil {
			return nil, err
		}
		srcs, dsts = append(srcs, src), append(dsts, dst)
	}
	return newSpec(srcs, dsts)
}

// MarshalJSON renders the canonical JSON form.
func (s *Spec) MarshalJSON() ([]byte, error) {
	var js specJSON
	for _, e := range s.edges {
		js.Edges = append(js.Edges, struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		}{varName(e.Src), varName(e.Dst)})
	}
	return json.Marshal(js)
}

// newSpec validates named edges and returns the canonicalized spec.
func newSpec(srcs, dsts []string) (*Spec, error) {
	if len(srcs) != SpecEdges {
		return nil, fmt.Errorf("%w (got %d)", ErrEdgeCount, len(srcs))
	}
	index := map[string]int{}
	lookup := func(name string) int {
		i, ok := index[name]
		if !ok {
			i = len(index)
			index[name] = i
		}
		return i
	}
	var s Spec
	for i := range srcs {
		if srcs[i] == dsts[i] {
			return nil, fmt.Errorf("%w: %q->%q", ErrSelfLoop, srcs[i], dsts[i])
		}
		s.edges[i] = SpecEdge{Src: lookup(srcs[i]), Dst: lookup(dsts[i])}
	}
	s.nodes = len(index)
	if s.nodes > MaxNodes {
		return nil, fmt.Errorf("%w (got %d)", ErrTooManyNodes, s.nodes)
	}
	if !s.connected() {
		return nil, ErrDisconnected
	}
	s.canonicalize()
	return &s, nil
}

// connected reports whether the spec's edges form one connected pattern
// over its variables (union-find over at most four elements).
func (s *Spec) connected() bool {
	var parent [MaxNodes]int
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range s.edges {
		parent[find(e.Src)] = find(e.Dst)
	}
	root := find(0)
	for v := 1; v < s.nodes; v++ {
		if find(v) != root {
			return false
		}
	}
	return true
}

// canonicalize relabels the variables to the lexicographically minimal
// encoding of the ordered edge list over all permutations of the variable
// indices (k ≤ 4, so at most 24 candidates — brute force is the honest
// optimum here). Edge order is temporal and never permuted: only names
// move. The result is a complete isomorphism invariant for specs, playing
// the role motif/iso.go's cell→label tables play for the 36-motif grid.
func (s *Spec) canonicalize() {
	best := s.edges
	perm := make([]int, s.nodes)
	for i := range perm {
		perm[i] = i
	}
	permute(perm, 0, func() {
		var cand [SpecEdges]SpecEdge
		for i, e := range s.edges {
			cand[i] = SpecEdge{Src: perm[e.Src], Dst: perm[e.Dst]}
		}
		if lessEdges(cand, best) {
			best = cand
		}
	})
	s.edges = best
}

// permute enumerates the permutations of p[k:] in place, calling fn for
// each complete permutation of p.
func permute(p []int, k int, fn func()) {
	if k == len(p) {
		fn()
		return
	}
	for i := k; i < len(p); i++ {
		p[k], p[i] = p[i], p[k]
		permute(p, k+1, fn)
		p[k], p[i] = p[i], p[k]
	}
}

// lessEdges orders edge lists lexicographically by (Src, Dst) pairs.
func lessEdges(a, b [SpecEdges]SpecEdge) bool {
	for i := range a {
		switch {
		case a[i].Src != b[i].Src:
			return a[i].Src < b[i].Src
		case a[i].Dst != b[i].Dst:
			return a[i].Dst < b[i].Dst
		}
	}
	return false
}

// center returns the variable incident to every edge, if any (the counting
// pivot of the star families), and whether one exists.
func (s *Spec) center() (int, bool) {
	for v := 0; v < s.nodes; v++ {
		ok := true
		for _, e := range s.edges {
			if e.Src != v && e.Dst != v {
				ok = false
				break
			}
		}
		if ok {
			return v, true
		}
	}
	return 0, false
}

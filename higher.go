package hare

import (
	"fmt"

	"hare/internal/higher"
	"hare/internal/temporal"
)

// Star4Counter holds counts of 4-node, 3-edge δ-temporal star motifs — the
// first step of the paper's higher-order future-work direction — indexed by
// the direction pattern of the chronologically ordered edges relative to
// the center (8 non-isomorphic motifs).
type Star4Counter = higher.Star4Counter

// Star4Options configures the higher-order counters' parallel scheduling
// (workers, degree threshold, chunking); counts are exact at any setting.
type Star4Options = higher.Options

// higherOptions maps the shared Option list onto the higher-order
// counters' scheduling knobs. Only WithWorkers and WithDegreeThreshold
// apply; the remaining options configure Count-specific behaviour and are
// ignored here.
func higherOptions(opts []Option) higher.Options {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return higher.Options{Workers: c.workers, DegreeThreshold: c.thrd}
}

// CountStar4 exactly counts the 4-node, 3-edge star motifs in g: a center
// node with three in-window edges to three distinct neighbors. It derives
// the counts from the same counter family as Count (see internal/higher for
// the decomposition identity) and shares its exactness guarantees. Counting
// parallelises over centers with the same worker/scheduling machinery as
// Count — WithWorkers and WithDegreeThreshold apply (default: all CPUs,
// automatic threshold); counts are bit-identical at any setting.
func CountStar4(g *Graph, delta Timestamp, opts ...Option) (Star4Counter, error) {
	if g == nil {
		return Star4Counter{}, errNilGraph
	}
	if delta < 0 {
		return Star4Counter{}, errNegativeDelta(delta)
	}
	return higher.CountStar4(g, delta, higherOptions(opts)), nil
}

var errNilGraph = temporalError("nil graph")

type temporalError string

func (e temporalError) Error() string { return "hare: " + string(e) }

func errNegativeDelta(d temporal.Timestamp) error {
	return fmt.Errorf("hare: negative δ (%d)", d)
}

// Path4Counter holds counts of the 24 non-isomorphic 4-node, 3-edge
// δ-temporal path motifs.
type Path4Counter = higher.PathCounter

// Path4Label identifies one 4-node path motif.
type Path4Label = higher.PathLabel

// CountPath4 exactly counts the 4-node, 3-edge path motifs in g (edges
// a–b, b–c, c–d over four distinct nodes within δ). Together with
// CountStar4 this covers every connected 4-node 3-edge motif. It counts
// every pair of legs at the two ends of each edge, in plain dynamic chunks
// of edges, and subtracts the pairs whose legs meet, which close
// δ-triangles counted by FAST-Tri on the HARE engine. WithWorkers applies
// to both halves; WithDegreeThreshold steers the triangle half's hub stage.
// The counts are bit-identical at any setting.
func CountPath4(g *Graph, delta Timestamp, opts ...Option) (Path4Counter, error) {
	if g == nil {
		return Path4Counter{}, errNilGraph
	}
	if delta < 0 {
		return Path4Counter{}, errNegativeDelta(delta)
	}
	return higher.CountPath4(g, delta, higherOptions(opts)), nil
}

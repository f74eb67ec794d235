// Package brute enumerates δ-temporal motif instances by exhaustive window
// scanning. It is the ground-truth oracle used to validate every counting
// algorithm in this repository; it shares no code with the algorithms under
// test (classification goes through motif.Classify, which derives labels from
// first principles).
//
// Complexity is O(|E| · w²) for window size w — use only on test-sized
// graphs.
package brute

import (
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Count enumerates every chronologically ordered edge triple (i < j < k by
// EdgeID) with t_k − t_i ≤ δ whose induced graph is a connected 2- or 3-node
// pattern, and tallies the triples per motif label.
func Count(g *temporal.Graph, delta temporal.Timestamp) motif.Matrix {
	var m motif.Matrix
	// Read the columnar edge store directly; EdgeID order is the row order.
	src, dst, ts := g.Src(), g.Dst(), g.Times()
	for i := 0; i < len(ts); i++ {
		ei := temporal.Edge{From: src[i], To: dst[i], Time: ts[i]}
		for j := i + 1; j < len(ts); j++ {
			if ts[j]-ts[i] > delta {
				break
			}
			ej := temporal.Edge{From: src[j], To: dst[j], Time: ts[j]}
			for k := j + 1; k < len(ts); k++ {
				if ts[k]-ts[i] > delta {
					break
				}
				ek := temporal.Edge{From: src[k], To: dst[k], Time: ts[k]}
				if l, ok := motif.Classify(ei, ej, ek); ok {
					m.AddAt(l, 1)
				}
			}
		}
	}
	return m
}

// CenterTriples tallies every chronologically ordered triple of edges
// incident to u with t_k − t_i ≤ δ, whatever their far ends, by the direction
// pattern of its edges relative to u (motif.PairIndex): the all-triples tally
// 4-node stars are complemented from. It filters the edge columns for u
// rather than reading u's incidence sequence.
func CenterTriples(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp) (all [8]uint64) {
	src, dst, ts := g.Src(), g.Dst(), g.Times()
	var inc []int
	for i := range ts {
		if src[i] == u || dst[i] == u {
			inc = append(inc, i)
		}
	}
	dir := func(i int) motif.Dir { return motif.DirOf(src[i] == u) }
	for a, i := range inc {
		for b := a + 1; b < len(inc) && ts[inc[b]]-ts[i] <= delta; b++ {
			for c := b + 1; c < len(inc) && ts[inc[c]]-ts[i] <= delta; c++ {
				all[motif.PairIndex(dir(i), dir(inc[b]), dir(inc[c]))]++
			}
		}
	}
	return all
}

// CountLabel counts instances of a single motif label (convenience for
// baseline tests).
func CountLabel(g *temporal.Graph, delta temporal.Timestamp, label motif.Label) uint64 {
	m := Count(g, delta)
	return m.At(label)
}

// Instance is one enumerated motif occurrence (EdgeIDs in chronological
// order).
type Instance struct {
	Label motif.Label
	Edges [3]temporal.EdgeID
}

// Enumerate returns every motif instance explicitly. Intended for tests and
// examples that need to inspect occurrences, not just counts.
func Enumerate(g *temporal.Graph, delta temporal.Timestamp) []Instance {
	var out []Instance
	src, dst, ts := g.Src(), g.Dst(), g.Times()
	edge := func(i int) temporal.Edge { return temporal.Edge{From: src[i], To: dst[i], Time: ts[i]} }
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if ts[j]-ts[i] > delta {
				break
			}
			for k := j + 1; k < len(ts); k++ {
				if ts[k]-ts[i] > delta {
					break
				}
				if l, ok := motif.Classify(edge(i), edge(j), edge(k)); ok {
					out = append(out, Instance{
						Label: l,
						Edges: [3]temporal.EdgeID{temporal.EdgeID(i), temporal.EdgeID(j), temporal.EdgeID(k)},
					})
				}
			}
		}
	}
	return out
}

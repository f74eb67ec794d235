package higher

import (
	"fmt"

	"hare/internal/temporal"
)

// 4-node, 3-edge δ-temporal paths complete the 4-node 3-edge family next to
// the stars: edges a–b, b–c, c–d over four distinct nodes. Every instance
// has a unique *structural middle* edge (the one sharing a node with both
// others), which anchors the counting loop; the temporal order of the three
// edges and their directions along the a→b→c→d traversal define the motif.
//
// Taxonomy: 6 temporal permutations of (first-leg, middle, last-leg) × 2³
// directions = 48 raw patterns; path reversal (reading d,c,b,a) identifies
// them in pairs, leaving 24 non-isomorphic 4-node path motifs. With the 8
// stars this covers all 32 connected 4-node 3-edge δ-temporal motifs.

// PathLabel identifies one of the 24 non-isomorphic 4-node path motifs.
// The zero value is not a valid label; obtain labels from PathCounter or
// CanonicalPath.
type PathLabel uint8

// String renders the label as "P<perm><dirs>" where perm is the temporal
// role order (e.g. "fmg" = first-leg, middle, last-leg) and dirs are the
// traversal directions of the chronologically ordered edges ('>' forward,
// '<' backward along a→b→c→d).
func (l PathLabel) String() string {
	perm := pathPerms[l>>3]
	d := l & 7
	dirs := [3]byte{}
	for i := 0; i < 3; i++ {
		if d>>(2-i)&1 == 1 {
			dirs[i] = '>'
		} else {
			dirs[i] = '<'
		}
	}
	return fmt.Sprintf("P%s%s", perm, dirs)
}

// pathPerms[p] spells the temporal role order for permutation index p.
// Roles: f = leg a-b, m = middle b-c, g = leg c-d.
var pathPerms = [6]string{"fmg", "fgm", "mfg", "mgf", "gfm", "gmf"}

// permIndex maps the temporal ranks of (f, m, g) to a permutation index.
func permIndex(rankF, rankM, rankG int) uint8 {
	switch {
	case rankF == 0 && rankM == 1:
		return 0 // f m g
	case rankF == 0 && rankG == 1:
		return 1 // f g m
	case rankM == 0 && rankF == 1:
		return 2 // m f g
	case rankM == 0 && rankG == 1:
		return 3 // m g f
	case rankG == 0 && rankF == 1:
		return 4 // g f m
	default:
		return 5 // g m f
	}
}

// reversedPerm[p] is the permutation index after swapping the roles f and g.
var reversedPerm = [6]uint8{
	0: 5, // fmg -> gmf
	1: 4, // fgm -> gfm
	2: 3, // mfg -> mgf
	3: 2,
	4: 1,
	5: 0,
}

// CanonicalPath returns the canonical label for a raw pattern: the temporal
// ranks of the three roles and the traversal direction of each role
// (true = forward along a→b→c→d). The canonical form is the lexicographic
// minimum of the pattern and its path reversal.
func CanonicalPath(rankF, rankM, rankG int, fwdF, fwdM, fwdG bool) PathLabel {
	enc := encodePath(permIndex(rankF, rankM, rankG), fwdF, fwdM, fwdG)
	// Reversal: roles f and g swap, every direction flips.
	rev := encodePath(reversedPerm[permIndex(rankF, rankM, rankG)], !fwdG, !fwdM, !fwdF)
	if rev < enc {
		enc = rev
	}
	return enc
}

// encodePath packs a permutation index and the *chronologically ordered*
// directions into a label. Directions arrive per role; reorder them by rank
// first.
func encodePath(perm uint8, fwdF, fwdM, fwdG bool) PathLabel {
	// Roles in temporal order for this permutation.
	order := pathPerms[perm]
	var bits uint8
	for i := 0; i < 3; i++ {
		var fwd bool
		switch order[i] {
		case 'f':
			fwd = fwdF
		case 'm':
			fwd = fwdM
		default:
			fwd = fwdG
		}
		if fwd {
			bits |= 1 << (2 - i)
		}
	}
	return PathLabel(perm<<3 | bits)
}

// PathCounter holds counts for the 24 path motifs, indexed by canonical
// label (48 slots, only canonical ones populated).
type PathCounter [48]uint64

// At returns the count for a label.
func (c *PathCounter) At(l PathLabel) uint64 { return c[l] }

// Add accumulates another counter.
func (c *PathCounter) Add(o *PathCounter) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the number of path instances.
func (c *PathCounter) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// Labels returns the populated labels with counts, in label order.
func (c *PathCounter) Labels() []struct {
	Label PathLabel
	Count uint64
} {
	var out []struct {
		Label PathLabel
		Count uint64
	}
	for i, v := range c {
		if v > 0 {
			out = append(out, struct {
				Label PathLabel
				Count uint64
			}{PathLabel(i), v})
		}
	}
	return out
}

// CountPaths exactly counts all 4-node, 3-edge path motifs. For every edge
// in the role of the structural middle (b–c), the legs are drawn from the
// δ-neighbourhoods of b and c; cost is O(Σ_m d^δ(b)·d^δ(c)), so it is
// pricier than the 3-node algorithms — it exists to complete the
// higher-order family, per the paper's §VI.
func CountPaths(g *temporal.Graph, delta temporal.Timestamp) PathCounter {
	var out PathCounter
	for id := 0; id < g.NumEdges(); id++ {
		countPathsMiddle(g, temporal.EdgeID(id), delta, &out)
	}
	return out
}

// CountPathMiddle adds to out every path instance whose structural middle
// is the given edge — the same per-edge unit CountPath4Range schedules,
// exposed so samplers (internal/approx) can evaluate a single pivot without
// paying a full range dispatch per draw.
func CountPathMiddle(g *temporal.Graph, mid temporal.EdgeID, delta temporal.Timestamp, out *PathCounter) {
	countPathsMiddle(g, mid, delta, out)
}

// countPathsMiddle tallies every path instance whose structural middle is
// the given edge. Each instance has a unique middle, so per-edge tallies
// sum without correction — the unit of work for the parallel CountPath4.
func countPathsMiddle(g *temporal.Graph, mid temporal.EdgeID, delta temporal.Timestamp, out *PathCounter) {
	b, c := g.Src()[mid], g.Dst()[mid]
	mt := g.Times()[mid]
	fw := WindowAround(g.Seq(b), mt, delta)
	gw := WindowAround(g.Seq(c), mt, delta)
	for fi := 0; fi < fw.Len(); fi++ {
		fID, fOther := fw.ID[fi], fw.Other[fi]
		if fID == mid || fOther == c {
			continue // multi-edge on the middle pair: not a path
		}
		fTime, fOut := fw.Time[fi], fw.Out[fi]
		for gi := 0; gi < gw.Len(); gi++ {
			gID, gOther := gw.ID[gi], gw.Other[gi]
			if gID == mid || gOther == b || gOther == fOther {
				continue // triangle or repeated node: not a path
			}
			if Span3(fTime, mt, gw.Time[gi]) > delta {
				continue
			}
			// Temporal ranks by EdgeID (total order).
			rankF, rankM, rankG := ranks(fID, mid, gID)
			// Directions along a→b→c→d: f forward means a→b, i.e. f
			// points *into* b; m forward means b→c (always true for
			// the stored orientation); g forward means c→d, i.e. g
			// points *out of* c.
			out[CanonicalPath(rankF, rankM, rankG, !fOut, true, gw.Out[gi])]++
		}
	}
}

// WindowAround returns the half-edges with |t − center| ≤ δ: the window the
// path counter scans around its middle edge and the query executor
// (internal/query) around its pivot edge.
func WindowAround(seq temporal.Seq, center temporal.Timestamp, delta temporal.Timestamp) temporal.Seq {
	start := seq.LowerBoundTime(center - delta)
	end := seq.UpperBoundTime(center + delta)
	return seq.Slice(start, end)
}

// Span3 returns the time span covered by three timestamps.
func Span3(a, b, c temporal.Timestamp) temporal.Timestamp {
	min, max := a, a
	if b < min {
		min = b
	}
	if b > max {
		max = b
	}
	if c < min {
		min = c
	}
	if c > max {
		max = c
	}
	return max - min
}

func ranks(idF, idM, idG temporal.EdgeID) (rf, rm, rg int) {
	if idF > idM {
		rf++
	}
	if idF > idG {
		rf++
	}
	if idM > idF {
		rm++
	}
	if idM > idG {
		rm++
	}
	if idG > idF {
		rg++
	}
	if idG > idM {
		rg++
	}
	return
}

// NumPathMotifs is the number of non-isomorphic 4-node 3-edge path motifs.
const NumPathMotifs = 24

// AllPathLabels enumerates the canonical path labels.
func AllPathLabels() []PathLabel {
	seen := map[PathLabel]bool{}
	var out []PathLabel
	for perm := uint8(0); perm < 6; perm++ {
		for bits := uint8(0); bits < 8; bits++ {
			raw := PathLabel(perm<<3 | bits)
			canon := canonicalOf(raw)
			if !seen[canon] {
				seen[canon] = true
				out = append(out, canon)
			}
		}
	}
	return out
}

// canonicalOf canonicalises a raw encoded pattern.
func canonicalOf(raw PathLabel) PathLabel {
	perm := uint8(raw) >> 3
	bits := uint8(raw) & 7
	// Decode chronological dirs back to per-role dirs.
	order := pathPerms[perm]
	var fwdF, fwdM, fwdG bool
	for i := 0; i < 3; i++ {
		fwd := bits>>(2-i)&1 == 1
		switch order[i] {
		case 'f':
			fwdF = fwd
		case 'm':
			fwdM = fwd
		default:
			fwdG = fwd
		}
	}
	rev := encodePath(reversedPerm[perm], !fwdG, !fwdM, !fwdF)
	if rev < raw {
		return rev
	}
	return raw
}

package higher

import (
	"fmt"
	"strings"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// 4-node, 3-edge δ-temporal paths complete the 4-node 3-edge family next to
// the stars: edges a–b, b–c, c–d over four distinct nodes. Every instance
// has a unique *structural middle* edge (the one sharing a node with both
// others), the pivot they are counted at: per middle edge, the legs at its
// two endpoints are counted against each other, never paired up. The pair
// sweep (sweep.go) keeps the different-far-end cells, the paths;
// CountPath4Range keeps all of them and takes the triangles off afterwards
// (allpairs.go). The temporal order of the three edges and their directions
// along the a→b→c→d traversal define the motif.
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

// pathCells maps the raw cells of a LegPairs, laid out
// [order][outer leg out][inner leg out], to canonical path labels: 6×2×2 raw
// patterns onto the 24 motifs. f forward along a→b→c→d means a→b, i.e. f
// points *into* b; the stored pivot b→c is always forward; g forward means
// c→d, i.e. g points *out of* c.
var pathCells = func() (cells [numLegOrders][2][2]PathLabel) {
	for o := LegOrder(0); o < numLegOrders; o++ {
		rank := func(role byte) int { return strings.IndexByte(pathPerms[o], role) }
		for _, fOut := range []bool{false, true} {
			for _, gOut := range []bool{false, true} {
				outer, inner := motif.DirOf(gOut), motif.DirOf(fOut)
				if outerIsF[o] {
					outer, inner = inner, outer
				}
				cells[o][outer][inner] = CanonicalPath(rank('f'), rank('m'), rank('g'), !fOut, true, gOut)
			}
		}
	}
	return cells
}()

// addPaths adds the different-far-end leg pairs to the path counter.
func (c *PathCounter) addPaths(diff *LegPairs) {
	for o := range diff {
		for x := range diff[o] {
			for y, v := range diff[o][x] {
				c[pathCells[o][x][y]] += v
			}
		}
	}
}

// CountPaths exactly counts all 4-node, 3-edge path motifs on the caller's
// goroutine: for every edge in the role of the structural middle (b–c), one
// pair sweep (sweep.go) over the δ-windows of b and c, O(Σ_m d^δ(b)+d^δ(c))
// in all. It completes the higher-order family, per the paper's §VI.
func CountPaths(g *temporal.Graph, delta temporal.Timestamp) PathCounter {
	scratch := fast.GetScratch(g.NumNodes())
	defer fast.PutScratch(scratch)
	var diff, same LegPairs
	for id := 0; id < g.NumEdges(); id++ {
		CountLegPairs(g, temporal.EdgeID(id), delta, AllLegOrders, scratch, &diff, &same)
	}
	var out PathCounter
	out.addPaths(&diff)
	return out
}

// CountPathMiddle adds to out every path instance whose structural middle
// is the given edge — CountPaths' per-edge unit, exposed so samplers
// (internal/approx) can evaluate a single pivot without paying a full range
// dispatch per draw. Each instance has a unique middle, so per-edge tallies
// sum without correction. CountPath4Range's per-edge tallies do not: they
// hold the pivot's triangles too, which come off only in a whole range's
// sum. scratch must cover the graph's node IDs.
func CountPathMiddle(g *temporal.Graph, mid temporal.EdgeID, delta temporal.Timestamp,
	scratch *fast.Scratch, out *PathCounter) {
	var diff, same LegPairs
	CountLegPairs(g, mid, delta, AllLegOrders, scratch, &diff, &same)
	out.addPaths(&diff)
}

// CountPathCell counts the instances of one path motif whose structural
// middle is the given edge: CountPathMiddle's cell for label, from the one
// role order that fills it. Reversing a path flips its middle, so of a
// label's two raw patterns exactly one has the stored pivot forward along
// a→b→c→d, and the label is one raw cell of the pivot's leg pairs. It is
// the per-draw unit of the query sampler (internal/approx): one sweep
// instead of six. label must be canonical (AllPathLabels).
func CountPathCell(g *temporal.Graph, mid temporal.EdgeID, delta temporal.Timestamp,
	label PathLabel, scratch *fast.Scratch) uint64 {
	c := rawPathCell[label]
	var diff, same LegPairs
	CountLegPairs(g, mid, delta, 1<<c.order, scratch, &diff, &same)
	return diff[c.order][c.outer][c.inner]
}

// rawPathCell inverts pathCells: the raw LegPairs cell of each canonical
// label.
var rawPathCell = func() (raw [len(PathCounter{})]struct {
	order        LegOrder
	outer, inner uint8
}) {
	for o := range pathCells {
		for x := range pathCells[o] {
			for y, l := range pathCells[o][x] {
				raw[l].order, raw[l].outer, raw[l].inner = LegOrder(o), uint8(x), uint8(y)
			}
		}
	}
	return raw
}()

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

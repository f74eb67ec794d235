// Package higher implements the paper's stated future-work direction:
// counting higher-order (more-node) temporal motifs "by expanding the number
// of center nodes and slightly adapting the structure of the counters"
// (paper §VI).
//
// The first step beyond the 36-motif grid is the 4-node, 3-edge δ-temporal
// star: a center node with three edges to three *distinct* neighbors inside
// the window — exactly the triples the 3-node algorithms discard. Because
// every ordered triple of center-incident edges is either a pair pattern
// (one distinct neighbor), a 3-node star (two), or a 4-node star (three),
// the 4-node counts follow from one extra aggregate counter by
// complementing the counters FAST-Star already maintains:
//
//	Star4[d1,d2,d3] = All[d1,d2,d3] − Σ_type Star[type,d1,d2,d3] − Pair[d1,d2,d3]
//
// where All counts every center-incident ordered triple within δ by
// direction pattern. fast.SweepStarPairRange yields All beside the star and
// pair cells from its one O(d) pass per center, so the 4-node counts cost
// nothing beyond the 3-node ones, and — like FAST — are embarrassingly
// parallel over centers (each 4-node star has a unique center).
//
// The 4-node paths (path.go) are counted per edge as the structural middle.
// The pair sweep (sweep.go) splits each middle edge's leg pairs by whether
// their far ends differ (paths) or meet (triangles); CountPath4Range instead
// counts all leg pairs without a per-neighbour counter and subtracts the
// triangles FAST-Tri counts, through a constant map of its cells
// (allpairs.go).
//
// The package has no scheduler of its own. CountStar4Range is a caller of
// engine.Sweep, HARE's two-stage schedule: it sweeps center nodes with an
// intra-center split for hubs, and returns the FAST-Star counters beside the
// 4-node ones, so the query compiler's center plans read any star or pair
// cell from it. CountPath4Range, whose cells the query compiler's path plans
// read, sweeps edges in the flat dynamic chunks of engine.Dispatch, because
// an edge pivot's cost is linear in its endpoints' δ-windows; its triangles
// run on engine.Sweep like every FAST-Tri count. Options converts to engine.Options in one place and resolves no
// default itself. Count and CountPaths stay plain sequential loops: the
// references the differential tests compare the scheduled counters to.
package higher

import (
	"fmt"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

// Star4Counter counts 4-node, 3-edge star motifs by the direction pattern
// (d1,d2,d3) of the chronologically ordered edges relative to the center:
// 8 non-isomorphic motifs (the three leaves are interchangeable, so the
// direction pattern is a complete invariant).
type Star4Counter [8]uint64

// At returns the count for a direction pattern.
func (c *Star4Counter) At(d1, d2, d3 motif.Dir) uint64 {
	return c[motif.PairIndex(d1, d2, d3)]
}

// Add accumulates another counter.
func (c *Star4Counter) Add(o *Star4Counter) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the number of 4-node star instances.
func (c *Star4Counter) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// String lists the 8 pattern counts in the paper's in/o notation.
func (c *Star4Counter) String() string {
	s := ""
	for i, v := range c {
		d1, d2, d3 := motif.PairDirs(i)
		s += fmt.Sprintf("S4[%s,%s,%s]=%d ", d1, d2, d3, v)
	}
	return s
}

// CountNode counts the 4-node stars centered at u, also returning the
// intermediate 3-node counters it derives them from (useful when the caller
// wants the full 2-/3-/4-node profile of one node in a single pass).
func CountNode(g *temporal.Graph, u temporal.NodeID, delta temporal.Timestamp,
	scratch *fast.Scratch) (Star4Counter, motif.Counts) {
	var all [8]uint64
	var counts motif.Counts
	su := g.Seq(u)
	fast.SweepStarPairRange(su, delta, &counts, &all, scratch, 0, su.Len())
	return complement(&all, &counts), counts
}

// complement applies the package's identity: of the ordered in-window
// triples tallied in all, those FAST-Star classifies as a 3-node star or a
// pair are not 4-node stars; the rest are. Both sides are sums over centers,
// so it holds for one center and for any set of them alike.
func complement(all *[8]uint64, counts *motif.Counts) Star4Counter {
	var s4 Star4Counter
	for i := range s4 {
		d1, d2, d3 := motif.PairDirs(i)
		v := all[i]
		v -= counts.Star.At(motif.StarI, d1, d2, d3)
		v -= counts.Star.At(motif.StarII, d1, d2, d3)
		v -= counts.Star.At(motif.StarIII, d1, d2, d3)
		v -= counts.Pair.At(d1, d2, d3)
		s4[i] = v
	}
	return s4
}

// Count counts all 4-node, 3-edge star motifs in the graph. Each instance
// has a unique center, so the per-center counts sum without correction.
func Count(g *temporal.Graph, delta temporal.Timestamp) Star4Counter {
	var total Star4Counter
	scratch := fast.NewScratch()
	for u := 0; u < g.NumNodes(); u++ {
		s4, _ := CountNode(g, temporal.NodeID(u), delta, scratch)
		total.Add(&s4)
	}
	return total
}

package motif

import (
	"fmt"
	"slices"
)

// PairCounter is the paper's triple counter Pair[dir1, dir2, dir3] for pair
// temporal motifs: 8 cells indexed by the directions of the three edges
// relative to the counting center. Each of the 4 non-isomorphic pair motifs
// occupies two complementary cells (the same instance seen from either
// endpoint), and each single cell equals the exact instance count.
type PairCounter [8]uint64

// PairIndex flattens (d1,d2,d3) into a PairCounter index.
func PairIndex(d1, d2, d3 Dir) int { return int(d1)<<2 | int(d2)<<1 | int(d3) }

// PairDirs inverts PairIndex.
func PairDirs(i int) (d1, d2, d3 Dir) {
	return Dir(i >> 2 & 1), Dir(i >> 1 & 1), Dir(i & 1)
}

// At returns the cell for the given direction pattern.
func (c *PairCounter) At(d1, d2, d3 Dir) uint64 { return c[PairIndex(d1, d2, d3)] }

// Add accumulates another counter into c.
func (c *PairCounter) Add(o *PairCounter) {
	for i := range c {
		c[i] += o[i]
	}
}

// Sub removes another counter from c. Every cell of o must be <= the
// matching cell of c (o is a sub-multiset of the instances in c, e.g. the
// expired instances of a sliding window); violating that is a programming
// error and panics rather than silently wrapping around.
func (c *PairCounter) Sub(o *PairCounter) {
	for i := range c {
		if o[i] > c[i] {
			panic(fmt.Sprintf("motif: pair cell %d underflow (%d - %d)", i, c[i], o[i]))
		}
		c[i] -= o[i]
	}
}

// Total returns the sum over all cells (twice the number of pair instances,
// since each instance is recorded from both endpoints).
func (c *PairCounter) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// StarCounter is the paper's quadruple counter Star[Type, dir1, dir2, dir3]:
// 24 cells in bijection with the 24 non-isomorphic star temporal motifs.
type StarCounter [24]uint64

// StarIndex flattens (type,d1,d2,d3) into a StarCounter index.
func StarIndex(t StarType, d1, d2, d3 Dir) int {
	return int(t)<<3 | int(d1)<<2 | int(d2)<<1 | int(d3)
}

// StarCell inverts StarIndex.
func StarCell(i int) (t StarType, d1, d2, d3 Dir) {
	return StarType(i >> 3), Dir(i >> 2 & 1), Dir(i >> 1 & 1), Dir(i & 1)
}

// At returns the cell for the given type and direction pattern.
func (c *StarCounter) At(t StarType, d1, d2, d3 Dir) uint64 {
	return c[StarIndex(t, d1, d2, d3)]
}

// Add accumulates another counter into c.
func (c *StarCounter) Add(o *StarCounter) {
	for i := range c {
		c[i] += o[i]
	}
}

// Sub removes another counter from c; see PairCounter.Sub for the contract.
func (c *StarCounter) Sub(o *StarCounter) {
	for i := range c {
		if o[i] > c[i] {
			panic(fmt.Sprintf("motif: star cell %d underflow (%d - %d)", i, c[i], o[i]))
		}
		c[i] -= o[i]
	}
}

// Total returns the sum over all cells (= total star instances).
func (c *StarCounter) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// TriCounter is the paper's quadruple counter Tri[Type, dir_i, dir_j, dir_k]:
// 24 cells covering the 8 non-isomorphic triangle motifs three times each
// (one cell per choice of center vertex, paper Fig. 8).
type TriCounter [24]uint64

// TriIndex flattens (type, di, dj, dk) into a TriCounter index.
func TriIndex(t TriType, di, dj, dk Dir) int {
	return int(t)<<3 | int(di)<<2 | int(dj)<<1 | int(dk)
}

// TriCell inverts TriIndex.
func TriCell(i int) (t TriType, di, dj, dk Dir) {
	return TriType(i >> 3), Dir(i >> 2 & 1), Dir(i >> 1 & 1), Dir(i & 1)
}

// At returns the cell for the given type and direction pattern.
func (c *TriCounter) At(t TriType, di, dj, dk Dir) uint64 {
	return c[TriIndex(t, di, dj, dk)]
}

// Add accumulates another counter into c.
func (c *TriCounter) Add(o *TriCounter) {
	for i := range c {
		c[i] += o[i]
	}
}

// Sub removes another counter from c; see PairCounter.Sub for the contract.
func (c *TriCounter) Sub(o *TriCounter) {
	for i := range c {
		if o[i] > c[i] {
			panic(fmt.Sprintf("motif: tri cell %d underflow (%d - %d)", i, c[i], o[i]))
		}
		c[i] -= o[i]
	}
}

// Total returns the sum over all cells.
func (c *TriCounter) Total() uint64 {
	var s uint64
	for _, v := range c {
		s += v
	}
	return s
}

// Counts aggregates the three counters produced by one counting run. Every
// triangle instance is recorded once, in whichever of its three isomorphic
// cells its counting center sees (package fast gives each triangle to its
// lowest-(temporal degree, ID) vertex); ToMatrix sums the three.
type Counts struct {
	Pair PairCounter `json:"pair"`
	Star StarCounter `json:"star"`
	Tri  TriCounter  `json:"tri"`
}

// NumCells is the width of Counts.Cells: 8 pair, 24 star and 24 tri cells.
const NumCells = len(PairCounter{}) + len(StarCounter{}) + len(TriCounter{})

// Cells flattens the three counters into one slice of NumCells raw cells,
// pair then star then tri: the form the shard wire carries, where partials
// over disjoint ranges sum cell by cell.
func (c *Counts) Cells() []uint64 {
	return slices.Concat(c.Pair[:], c.Star[:], c.Tri[:])
}

// CountsFromCells inverts Cells; cells must hold NumCells values.
func CountsFromCells(cells []uint64) Counts {
	var c Counts
	n := copy(c.Pair[:], cells)
	n += copy(c.Star[:], cells[n:])
	copy(c.Tri[:], cells[n:])
	return c
}

// Add accumulates another Counts.
func (c *Counts) Add(o *Counts) {
	c.Pair.Add(&o.Pair)
	c.Star.Add(&o.Star)
	c.Tri.Add(&o.Tri)
}

// Sub removes another Counts (the inverse of Add, with the per-counter
// underflow contract).
func (c *Counts) Sub(o *Counts) {
	c.Pair.Sub(&o.Pair)
	c.Star.Sub(&o.Star)
	c.Tri.Sub(&o.Tri)
}

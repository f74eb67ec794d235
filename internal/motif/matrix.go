package motif

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Matrix holds the final per-motif instance counts in the paper's 6×6 layout
// (Fig. 2 / Fig. 10): Matrix[i][j] is the count of motif M(i+1)(j+1).
type Matrix [6][6]uint64

// At returns the count for a label.
func (m *Matrix) At(l Label) uint64 { return m[l.Row-1][l.Col-1] }

// Set stores the count for a label.
func (m *Matrix) Set(l Label, v uint64) { m[l.Row-1][l.Col-1] = v }

// AddAt increments the count for a label.
func (m *Matrix) AddAt(l Label, v uint64) { m[l.Row-1][l.Col-1] += v }

// Total returns the sum over all 36 motifs.
func (m *Matrix) Total() uint64 {
	var s uint64
	for i := range m {
		for j := range m[i] {
			s += m[i][j]
		}
	}
	return s
}

// CategoryTotal sums the counts of one motif category.
func (m *Matrix) CategoryTotal(c Category) uint64 {
	var s uint64
	for _, l := range AllLabels() {
		if l.Category() == c {
			s += m.At(l)
		}
	}
	return s
}

// KeepCategory zeroes every cell outside category c, pair and star counting
// as one category here: FAST-Star finds both in one pass, so a count
// restricted to either has both. It is the motif= restriction of a count,
// wherever the count ran (hare.Count's WithOnly, the shard tier's merge).
func (m *Matrix) KeepCategory(c Category) {
	for _, l := range AllLabels() {
		if k := l.Category(); k != c && (k == CategoryTri || c == CategoryTri) {
			m.Set(l, 0)
		}
	}
}

// Equal reports whether two matrices are identical.
func (m *Matrix) Equal(o *Matrix) bool { return *m == *o }

// Diff returns the labels whose counts differ between m and o.
func (m *Matrix) Diff(o *Matrix) []Label {
	var out []Label
	for _, l := range AllLabels() {
		if m.At(l) != o.At(l) {
			out = append(out, l)
		}
	}
	return out
}

// ToMatrix merges the raw counters into per-motif counts:
//
//   - each star cell maps 1:1 onto a star label;
//   - the two complementary pair cells each hold the exact count, so the
//     merged value is their mean (they are equal for a correct counter);
//   - the three isomorphic triangle cells are summed: every instance was
//     recorded once, in the cell its counting center sees.
func (c *Counts) ToMatrix() Matrix {
	var m Matrix
	for i, v := range c.Star {
		t, d1, d2, d3 := StarCell(i)
		m.AddAt(StarLabel(t, d1, d2, d3), v)
	}
	for _, l := range PairLabels() {
		cells, _ := PairCells(l)
		m.Set(l, (c.Pair[cells[0]]+c.Pair[cells[1]])/2)
	}
	for _, row := range triLabelTable {
		var s uint64
		for _, cell := range row.cells {
			s += c.Tri[cell]
		}
		m.Set(row.label, s)
	}
	return m
}

// FromLabelCounts builds a Matrix from a label→count map (used by the
// enumeration-based baselines).
func FromLabelCounts(counts map[Label]uint64) Matrix {
	var m Matrix
	for l, v := range counts {
		m.Set(l, v)
	}
	return m
}

// Write renders the matrix in the paper's Fig. 10 layout: one row per grid
// row, blank-padded counts, with a trailing category summary.
func (m *Matrix) Write(w io.Writer) {
	width := 6
	for i := range m {
		for j := range m[i] {
			if n := len(fmt.Sprint(m[i][j])); n+1 > width {
				width = n + 1
			}
		}
	}
	fmt.Fprintf(w, "%4s", "")
	for j := 1; j <= 6; j++ {
		fmt.Fprintf(w, "%*s", width, fmt.Sprintf("j=%d", j))
	}
	fmt.Fprintln(w)
	for i := range m {
		fmt.Fprintf(w, "i=%d ", i+1)
		for j := range m[i] {
			fmt.Fprintf(w, "%*d", width, m[i][j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "pairs=%d stars=%d triangles=%d total=%d\n",
		m.CategoryTotal(CategoryPair), m.CategoryTotal(CategoryStar),
		m.CategoryTotal(CategoryTri), m.Total())
}

// String renders the matrix via Write.
func (m *Matrix) String() string {
	var b strings.Builder
	m.Write(&b)
	return b.String()
}

// TopMotifs returns the n most frequent motifs with their counts, descending
// (count ties broken by label order).
func (m *Matrix) TopMotifs(n int) []LabelCount {
	all := make([]LabelCount, 0, 36)
	for _, l := range AllLabels() {
		all = append(all, LabelCount{Label: l, Count: m.At(l)})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Count > all[j].Count })
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// LabelCount pairs a motif label with an instance count.
type LabelCount struct {
	Label Label
	Count uint64
}

package motif

import (
	"strings"
	"testing"
)

// The paper's explicit anchor points for the cell->label mapping.
func TestPaperAnchors(t *testing.T) {
	if got := StarLabel(StarI, In, Out, In); got != (Label{2, 4}) {
		t.Errorf("Star[I,in,o,in] = %v, want M24 (paper Sec. IV-A.2)", got)
	}
	if got := StarLabel(StarIII, Out, Out, In); got != (Label{6, 3}) {
		t.Errorf("Star[III,o,o,in] = %v, want M63 (paper Fig. 1 walk-through)", got)
	}
	if got := PairLabel(Out, In, Out); got != (Label{6, 5}) {
		t.Errorf("Pair[o,in,o] = %v, want M65 (paper Fig. 1 walk-through)", got)
	}
	// Sec. IV-B.3 example: M25's three isomorphic triangle cells.
	for _, c := range []struct {
		tt         TriType
		di, dj, dk Dir
	}{
		{TriIII, Out, In, Out},
		{TriII, In, Out, In},
		{TriI, Out, In, Out},
	} {
		if got := TriLabel(c.tt, c.di, c.dj, c.dk); got != (Label{2, 5}) {
			t.Errorf("Tri[%v,%v,%v,%v] = %v, want M25", c.tt, c.di, c.dj, c.dk, got)
		}
	}
	// The cyclic triangle is M26 (2SCENT's target motif).
	if got := TriLabel(TriII, Out, In, Out); got != (Label{2, 6}) {
		t.Errorf("cyclic triangle Tri[II,o,in,o] = %v, want M26", got)
	}
}

func TestStarLabelBijection(t *testing.T) {
	seen := map[Label]bool{}
	for i := 0; i < 24; i++ {
		st, d1, d2, d3 := StarCell(i)
		l := StarLabel(st, d1, d2, d3)
		if l.Category() != CategoryStar {
			t.Fatalf("cell %d maps to non-star %v", i, l)
		}
		if seen[l] {
			t.Fatalf("label %v hit twice", l)
		}
		seen[l] = true
	}
	if len(seen) != 24 {
		t.Fatalf("star mapping covers %d labels, want 24", len(seen))
	}
}

func TestStarRowsGroupByType(t *testing.T) {
	wantRows := map[StarType][2]int{StarI: {1, 2}, StarII: {3, 4}, StarIII: {5, 6}}
	for i := 0; i < 24; i++ {
		st, d1, d2, d3 := StarCell(i)
		l := StarLabel(st, d1, d2, d3)
		rows := wantRows[st]
		if l.Row != rows[0] && l.Row != rows[1] {
			t.Errorf("%v cell in row %d, want %v", st, l.Row, rows)
		}
	}
}

func TestPairLabelComplementary(t *testing.T) {
	for i := 0; i < 8; i++ {
		d1, d2, d3 := PairDirs(i)
		a := PairLabel(d1, d2, d3)
		b := PairLabel(d1.Flip(), d2.Flip(), d3.Flip())
		if a != b {
			t.Errorf("cell %d and its complement map to %v vs %v", i, a, b)
		}
		if a.Category() != CategoryPair {
			t.Errorf("cell %d maps to non-pair %v", i, a)
		}
	}
	// All four pair labels are reachable.
	seen := map[Label]bool{}
	for i := 0; i < 8; i++ {
		seen[PairLabel(PairDirs(i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("pair mapping covers %d labels, want 4", len(seen))
	}
	// Specific identifications from the paper's text.
	if PairLabel(Out, Out, Out) != (Label{5, 5}) || PairLabel(In, In, In) != (Label{5, 5}) {
		t.Error("M55 mapping wrong")
	}
	if PairLabel(In, Out, Out) != (Label{5, 6}) || PairLabel(Out, In, In) != (Label{5, 6}) {
		t.Error("M56 mapping wrong")
	}
	if PairLabel(In, Out, In) != (Label{6, 5}) {
		t.Error("M65 mapping wrong")
	}
	if PairLabel(In, In, Out) != (Label{6, 6}) || PairLabel(Out, Out, In) != (Label{6, 6}) {
		t.Error("M66 mapping wrong")
	}
}

func TestTriLabelPartition(t *testing.T) {
	perLabel := map[Label]int{}
	perType := map[Label]map[TriType]int{}
	for i := 0; i < 24; i++ {
		tt, di, dj, dk := TriCell(i)
		l := TriLabel(tt, di, dj, dk)
		if l.Category() != CategoryTri {
			t.Fatalf("cell %d maps to non-triangle %v", i, l)
		}
		perLabel[l]++
		if perType[l] == nil {
			perType[l] = map[TriType]int{}
		}
		perType[l][tt]++
	}
	if len(perLabel) != 8 {
		t.Fatalf("triangle mapping covers %d labels, want 8", len(perLabel))
	}
	for l, n := range perLabel {
		if n != 3 {
			t.Errorf("%v has %d cells, want 3", l, n)
		}
		// One cell per center choice, hence one per type.
		for _, tt := range []TriType{TriI, TriII, TriIII} {
			if perType[l][tt] != 1 {
				t.Errorf("%v has %d cells of %v, want 1", l, perType[l][tt], tt)
			}
		}
	}
}

func TestTriCellsLookup(t *testing.T) {
	for _, l := range TriLabels() {
		cells, ok := TriCells(l)
		if !ok {
			t.Fatalf("TriCells(%v) not found", l)
		}
		for _, c := range cells {
			tt, di, dj, dk := TriCell(c)
			if TriLabel(tt, di, dj, dk) != l {
				t.Fatalf("cell %d of %v maps back to %v", c, l, TriLabel(tt, di, dj, dk))
			}
		}
	}
	if _, ok := TriCells(Label{1, 1}); ok {
		t.Fatal("TriCells should reject star labels")
	}
}

func TestPairCellsLookup(t *testing.T) {
	for _, l := range PairLabels() {
		cells, ok := PairCells(l)
		if !ok {
			t.Fatalf("PairCells(%v) not found", l)
		}
		if cells[0] == cells[1] {
			t.Fatalf("PairCells(%v) degenerate", l)
		}
		for _, c := range cells {
			if PairLabel(PairDirs(c)) != l {
				t.Fatalf("cell %d of %v maps back wrong", c, l)
			}
		}
	}
	if _, ok := PairCells(Label{1, 5}); ok {
		t.Fatal("PairCells should reject triangle labels")
	}
}

func TestStarCellOfLookup(t *testing.T) {
	for _, l := range StarLabels() {
		cell, ok := StarCellOf(l)
		if !ok {
			t.Fatalf("StarCellOf(%v) not found", l)
		}
		st, d1, d2, d3 := StarCell(cell)
		if StarLabel(st, d1, d2, d3) != l {
			t.Fatalf("cell %d of %v maps back wrong", cell, l)
		}
	}
	if _, ok := StarCellOf(Label{5, 5}); ok {
		t.Fatal("StarCellOf should reject pair labels")
	}
}

func TestToMatrix(t *testing.T) {
	var c Counts
	// One star instance in Star[I,in,o,in] -> M24.
	c.Star[StarIndex(StarI, In, Out, In)] = 7
	// Pair instance: both complementary cells hold the exact count 5.
	cells, _ := PairCells(Label{5, 5})
	c.Pair[cells[0]] = 5
	c.Pair[cells[1]] = 5
	// Triangle: 4 instances, each recorded once, in whichever isomorphic
	// cell its counting center saw.
	tcells, _ := TriCells(Label{2, 6})
	c.Tri[tcells[0]], c.Tri[tcells[1]], c.Tri[tcells[2]] = 1, 0, 3
	m := c.ToMatrix()
	if m.At(Label{2, 4}) != 7 {
		t.Errorf("M24 = %d, want 7", m.At(Label{2, 4}))
	}
	if m.At(Label{5, 5}) != 5 {
		t.Errorf("M55 = %d, want 5", m.At(Label{5, 5}))
	}
	if m.At(Label{2, 6}) != 4 {
		t.Errorf("M26 = %d, want 4", m.At(Label{2, 6}))
	}
	if m.Total() != 16 {
		t.Errorf("total = %d, want 16", m.Total())
	}
}

func TestMatrixHelpers(t *testing.T) {
	var m Matrix
	m.Set(Label{1, 1}, 10)
	m.AddAt(Label{1, 1}, 5)
	m.Set(Label{5, 5}, 3)
	m.Set(Label{2, 6}, 2)
	if m.At(Label{1, 1}) != 15 {
		t.Fatal("Set/AddAt/At wrong")
	}
	if m.Total() != 20 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.CategoryTotal(CategoryStar) != 15 || m.CategoryTotal(CategoryPair) != 3 || m.CategoryTotal(CategoryTri) != 2 {
		t.Fatal("CategoryTotal wrong")
	}
	var o Matrix
	if m.Equal(&o) {
		t.Fatal("Equal false positive")
	}
	diff := m.Diff(&o)
	if len(diff) != 3 {
		t.Fatalf("Diff = %v", diff)
	}
	o = m
	if !m.Equal(&o) || len(m.Diff(&o)) != 0 {
		t.Fatal("Equal/Diff on identical matrices wrong")
	}
	top := m.TopMotifs(2)
	if len(top) != 2 || top[0].Label != (Label{1, 1}) || top[0].Count != 15 {
		t.Fatalf("TopMotifs = %v", top)
	}
	if got := m.TopMotifs(100); len(got) != 36 {
		t.Fatalf("TopMotifs(100) len = %d", len(got))
	}
	s := m.String()
	if !strings.Contains(s, "total=20") || !strings.Contains(s, "i=6") {
		t.Fatalf("render missing pieces:\n%s", s)
	}
}

func TestFromLabelCounts(t *testing.T) {
	m := FromLabelCounts(map[Label]uint64{{2, 6}: 9, {5, 5}: 1})
	if m.At(Label{2, 6}) != 9 || m.At(Label{5, 5}) != 1 || m.Total() != 10 {
		t.Fatalf("FromLabelCounts wrong: %v", m)
	}
}

package motif

import (
	"testing"
	"testing/quick"
)

func TestLabelParsingAndString(t *testing.T) {
	l, err := ParseLabel("M24")
	if err != nil || l != (Label{2, 4}) {
		t.Fatalf("ParseLabel(M24) = %v, %v", l, err)
	}
	if l.String() != "M24" {
		t.Fatalf("String = %q", l.String())
	}
	if _, err := ParseLabel("M07"); err == nil {
		t.Fatal("want error for out-of-range label")
	}
	if _, err := ParseLabel("X11"); err == nil {
		t.Fatal("want error for bad prefix")
	}
	if _, err := ParseLabel("M111"); err == nil {
		t.Fatal("want error for bad length")
	}
	if l, err := ParseLabel("m63"); err != nil || l != (Label{6, 3}) {
		t.Fatalf("lower-case parse failed: %v %v", l, err)
	}
}

func TestCategoryPartition(t *testing.T) {
	var pairs, stars, tris int
	for _, l := range AllLabels() {
		switch l.Category() {
		case CategoryPair:
			pairs++
		case CategoryStar:
			stars++
		case CategoryTri:
			tris++
		}
	}
	if pairs != 4 || stars != 24 || tris != 8 {
		t.Fatalf("partition = %d/%d/%d, want 4/24/8", pairs, stars, tris)
	}
	if len(PairLabels()) != 4 || len(StarLabels()) != 24 || len(TriLabels()) != 8 {
		t.Fatal("label list sizes wrong")
	}
	for _, l := range PairLabels() {
		if l.Category() != CategoryPair {
			t.Errorf("%v not a pair", l)
		}
	}
	for _, l := range StarLabels() {
		if l.Category() != CategoryStar {
			t.Errorf("%v not a star", l)
		}
	}
	for _, l := range TriLabels() {
		if l.Category() != CategoryTri {
			t.Errorf("%v not a triangle", l)
		}
	}
}

func TestDir(t *testing.T) {
	if In.String() != "in" || Out.String() != "o" {
		t.Fatal("Dir strings wrong")
	}
	if In.Flip() != Out || Out.Flip() != In {
		t.Fatal("Flip wrong")
	}
}

func TestTypeStrings(t *testing.T) {
	if StarI.String() != "Star-I" || StarII.String() != "Star-II" || StarIII.String() != "Star-III" {
		t.Fatal("StarType strings wrong")
	}
	if TriI.String() != "Triangle-I" || TriII.String() != "Triangle-II" || TriIII.String() != "Triangle-III" {
		t.Fatal("TriType strings wrong")
	}
	if CategoryPair.String() != "pair" || CategoryStar.String() != "star" || CategoryTri.String() != "triangle" {
		t.Fatal("Category strings wrong")
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	f := func(a, b, c bool) bool {
		d1, d2, d3 := boolDir(a), boolDir(b), boolDir(c)
		i := PairIndex(d1, d2, d3)
		if i < 0 || i >= 8 {
			return false
		}
		r1, r2, r3 := PairDirs(i)
		return r1 == d1 && r2 == d2 && r3 == d3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStarIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, st := range []StarType{StarI, StarII, StarIII} {
		for _, d1 := range []Dir{In, Out} {
			for _, d2 := range []Dir{In, Out} {
				for _, d3 := range []Dir{In, Out} {
					i := StarIndex(st, d1, d2, d3)
					if i < 0 || i >= 24 || seen[i] {
						t.Fatalf("bad or duplicate index %d", i)
					}
					seen[i] = true
					rt, r1, r2, r3 := StarCell(i)
					if rt != st || r1 != d1 || r2 != d2 || r3 != d3 {
						t.Fatalf("round trip failed at %d", i)
					}
				}
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("covered %d cells, want 24", len(seen))
	}
}

func TestTriIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for _, tt := range []TriType{TriI, TriII, TriIII} {
		for _, d1 := range []Dir{In, Out} {
			for _, d2 := range []Dir{In, Out} {
				for _, d3 := range []Dir{In, Out} {
					i := TriIndex(tt, d1, d2, d3)
					if seen[i] {
						t.Fatalf("duplicate index %d", i)
					}
					seen[i] = true
					rt, r1, r2, r3 := TriCell(i)
					if rt != tt || r1 != d1 || r2 != d2 || r3 != d3 {
						t.Fatalf("round trip failed at %d", i)
					}
				}
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("covered %d cells, want 24", len(seen))
	}
}

func boolDir(b bool) Dir {
	if b {
		return Out
	}
	return In
}

func TestCountersAddTotal(t *testing.T) {
	var a, b Counts
	a.Star[3] = 5
	b.Star[3] = 7
	a.Pair[1] = 2
	b.Pair[1] = 3
	a.Tri[9] = 1
	b.Tri[9] = 1
	a.Add(&b)
	if a.Star[3] != 12 || a.Pair[1] != 5 || a.Tri[9] != 2 {
		t.Fatalf("Add failed: %+v", a)
	}
	if a.Star.Total() != 12 || a.Pair.Total() != 5 || a.Tri.Total() != 2 {
		t.Fatal("totals wrong")
	}
}

func TestCountersSub(t *testing.T) {
	var a, b Counts
	a.Star[3] = 5
	b.Star[3] = 2
	a.Pair[1] = 4
	b.Pair[1] = 4
	a.Tri[9] = 3
	b.Tri[9] = 1
	a.Sub(&b)
	if a.Star[3] != 3 || a.Pair[1] != 0 || a.Tri[9] != 2 {
		t.Fatalf("Sub failed: %+v", a)
	}
}

func TestCountersSubUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on cell underflow")
		}
	}()
	var a, b Counts
	b.Star[0] = 1
	a.Sub(&b)
}

func TestCounterAt(t *testing.T) {
	var s StarCounter
	s[StarIndex(StarII, Out, In, Out)] = 9
	if s.At(StarII, Out, In, Out) != 9 {
		t.Fatal("StarCounter.At wrong")
	}
	var p PairCounter
	p[PairIndex(In, Out, In)] = 4
	if p.At(In, Out, In) != 4 {
		t.Fatal("PairCounter.At wrong")
	}
	var tr TriCounter
	tr[TriIndex(TriIII, In, In, Out)] = 2
	if tr.At(TriIII, In, In, Out) != 2 {
		t.Fatal("TriCounter.At wrong")
	}
}

// TestCountsCells pins the wire order of the raw cells (pair, star, tri)
// and checks CountsFromCells inverts Cells.
func TestCountsCells(t *testing.T) {
	var c Counts
	c.Pair[7] = 1
	c.Star[0] = 2
	c.Tri[23] = 3
	cells := c.Cells()
	if len(cells) != NumCells || NumCells != 56 {
		t.Fatalf("%d cells, NumCells %d, want 56", len(cells), NumCells)
	}
	if cells[7] != 1 || cells[8] != 2 || cells[55] != 3 {
		t.Fatalf("cells out of pair/star/tri order: %v", cells)
	}
	if back := CountsFromCells(cells); back != c {
		t.Fatalf("round trip changed %+v into %+v", c, back)
	}
}

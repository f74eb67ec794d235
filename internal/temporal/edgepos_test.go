package temporal

import (
	"bytes"
	"cmp"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// checkDerived holds every derived slot of g to its definition: edge e sits
// at EdgePositions(g)[e][0] in S_src[e] and at [1] in S_dst[e], PairLinks
// chains the edges of Between(src, dst) in order, DefaultDegreeThreshold is
// TopKDegreeThreshold(g, 20), ForwardIncidences lists the positions of each
// S_u whose far end follows u with their next-different-neighbour indexes,
// and PivotRanking sorts the edges by PivotWeight (checkForward,
// checkRanking).
func checkDerived(t *testing.T, name string, g *Graph) {
	t.Helper()
	pos := EdgePositions(g)
	if len(pos) != g.NumEdges() {
		t.Fatalf("%s: %d positions for %d edges", name, len(pos), g.NumEdges())
	}
	for e, p := range pos {
		for side, u := range [2]NodeID{g.Src()[e], g.Dst()[e]} {
			if s := g.Seq(u); int(p[side]) >= s.Len() || s.ID[p[side]] != EdgeID(e) {
				t.Fatalf("%s: edge %d is not at offset %d of S_%d", name, e, p[side], u)
			}
		}
	}
	links := PairLinks(g)
	if len(links) != g.NumEdges() {
		t.Fatalf("%s: %d pair links for %d edges", name, len(links), g.NumEdges())
	}
	for e := range links {
		ids := g.Between(g.Src()[e], g.Dst()[e]).ID
		k := slices.Index(ids, EdgeID(e))
		want := [2]int32{-1, -1}
		if k > 0 {
			want[0] = ids[k-1]
		}
		if k+1 < len(ids) {
			want[1] = ids[k+1]
		}
		if links[e] != want {
			t.Fatalf("%s: edge %d links %v, its pair %v", name, e, links[e], ids)
		}
	}
	if got, want := DefaultDegreeThreshold(g), TopKDegreeThreshold(g, 20); got != want {
		t.Fatalf("%s: DefaultDegreeThreshold = %d, want %d", name, got, want)
	}
	checkForward(t, name, g)
	checkRanking(t, name, g)
}

// checkForward holds ForwardIncidences(g) to a scan of every S_u: its
// entries are the positions whose far end v has the larger degree, or the
// larger ID at equal degrees, in order, and each entry's next index is the
// first later entry to another neighbour. Every edge is forward at exactly
// one endpoint.
func checkForward(t *testing.T, name string, g *Graph) {
	t.Helper()
	fw := ForwardIncidences(g)
	total := 0
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		su := g.Seq(u)
		var want []int32
		for p, v := range su.Other {
			if dv, du := g.Degree(v), su.Len(); dv > du || dv == du && v > u {
				want = append(want, int32(p))
			}
		}
		pos, next := fw.Of(u)
		if !slices.Equal(pos, want) {
			t.Fatalf("%s: forward entries of node %d are %v, want %v", name, u, pos, want)
		}
		for k := range pos {
			n := k + 1
			for n < len(pos) && su.Other[pos[n]] == su.Other[pos[k]] {
				n++
			}
			if int(next[k]) != n {
				t.Fatalf("%s: node %d entry %d: next %d, want %d", name, u, k, next[k], n)
			}
		}
		total += len(pos)
	}
	if total != g.NumEdges() {
		t.Fatalf("%s: %d forward entries for %d edges", name, total, g.NumEdges())
	}
	if pos, next := fw.Of(NodeID(g.NumNodes())); pos != nil || next != nil {
		t.Fatalf("%s: a node past the graph has forward entries", name)
	}
}

// checkRanking holds PivotRanking(g) to its order: a permutation of the edge
// IDs, PivotWeight descending, ID ascending on ties.
func checkRanking(t *testing.T, name string, g *Graph) {
	t.Helper()
	rank := PivotRanking(g)
	want := make([]int32, g.NumEdges())
	for e := range want {
		want[e] = int32(e)
	}
	slices.SortStableFunc(want, func(a, b int32) int {
		return cmp.Compare(PivotWeight(g, EdgeID(b)), PivotWeight(g, EdgeID(a)))
	})
	if !slices.Equal(rank, want) {
		t.Fatalf("%s: PivotRanking %v, want %v", name, rank[:min(len(rank), 20)], want[:min(len(want), 20)])
	}
	for e := range want {
		src, dst := g.Src()[e], g.Dst()[e]
		if w := float64(g.Degree(src))*float64(g.Degree(dst)) + 1; PivotWeight(g, EdgeID(e)) != w {
			t.Fatalf("%s: edge %d weighs %v, want %v", name, e, PivotWeight(g, EdgeID(e)), w)
		}
	}
}

func byTime(a, b Edge) int { return cmp.Compare(a.Time, b.Time) }

// Every constructor's graph gets correct derived values, each derived from
// that graph alone: the text loader at one and four workers, unsorted
// input, a graph large enough for a parallel forward build, a decoded and a memory-mapped snapshot (which never store them),
// Extend's delta merge, a subgraph, and a Rebuilder reused from a larger
// graph to a smaller one and back, where a slot the rebuild failed to empty
// would read stale.
func TestEdgePositions(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	edges := randomEdges(r, 60, 3000, 40) // unsorted, with ties and self-loops
	sorted := slices.Clone(edges)
	slices.SortStableFunc(sorted, byTime)
	base := FromEdges(sorted)
	checkDerived(t, "FromEdges", base)
	checkDerived(t, "unsorted", FromEdges(edges))

	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := SaveFile(path, base); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		g, err := LoadFile(path, LoadOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkDerived(t, "LoadFile", g)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, base); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkDerived(t, "ReadSnapshot", snap)
	snapPath := filepath.Join(dir, "g.hare")
	if err := SaveSnapshot(snapPath, base); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	checkDerived(t, "LoadSnapshot", mapped)
	head := FromEdges(sorted[:2000])
	checkDerived(t, "Extend base", head)
	if _, _, _, ok := tailFits(head, sorted[2000:]); !ok {
		t.Fatal("the tail does not take Extend's merge path")
	}
	checkDerived(t, "Extend", Extend(head, sorted[2000:]))
	checkDerived(t, "InducedSubgraph", base.InducedSubgraph([]NodeID{0, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29}))
	// Past 8192 edges the forward incidences build on GOMAXPROCS goroutines.
	checkDerived(t, "FromEdges/20k", FromEdges(randomEdges(r, 3000, 20000, 500)))

	var rb Rebuilder
	for _, in := range [][]Edge{edges, edges[:400], sorted[:50], edges} {
		checkDerived(t, "Rebuilder", rebuild(&rb, in))
	}
}

// Racing first calls on a fresh graph build each slot once: all eight get
// the one stored value, so every position, link, forward and rank index
// shares a backing array.
func TestDerivedBuildOnce(t *testing.T) {
	g := FromEdges(randomEdges(rand.New(rand.NewSource(41)), 60, 3000, 40))
	const callers = 8
	var pos, links [callers][][2]int32
	var thrd [callers]int
	var fwd [callers]Forward
	var rank [callers][]int32
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pos[i] = EdgePositions(g)
			links[i] = PairLinks(g)
			thrd[i] = DefaultDegreeThreshold(g)
			fwd[i] = ForwardIncidences(g)
			rank[i] = PivotRanking(g)
		}()
	}
	wg.Wait()
	for i := range callers {
		if &pos[i][0] != &pos[0][0] || &links[i][0] != &links[0][0] || thrd[i] != thrd[0] ||
			&fwd[i].pos[0] != &fwd[0].pos[0] || &fwd[i].off[0] != &fwd[0].off[0] || &rank[i][0] != &rank[0][0] {
			t.Fatalf("caller %d got another build than caller 0", i)
		}
	}
	checkDerived(t, "raced", g)
}

// Edges copies the columns on every call: a caller may mutate the result.
func TestEdgesCallerOwned(t *testing.T) {
	g := FromEdges([]Edge{{From: 0, To: 1, Time: 5}, {From: 1, To: 2, Time: 7}})
	es := g.Edges()
	want := slices.Clone(es)
	es[0] = Edge{From: 9, To: 9, Time: -1}
	if got := g.Edges(); !slices.Equal(got, want) || g.Edge(0) != want[0] {
		t.Fatalf("Edges after mutating a result = %v, want %v", got, want)
	}
}

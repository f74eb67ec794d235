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

// checkEdgePositions holds EdgePositions to its definition: edge e sits at
// pos[e][0] in S_src[e] and at pos[e][1] in S_dst[e].
func checkEdgePositions(t *testing.T, name string, g *Graph) {
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
}

func byTime(a, b Edge) int { return cmp.Compare(a.Time, b.Time) }

// Every constructor's graph gets a correct index, each derived from that
// graph alone: the text loader at one and four workers, unsorted input, a
// decoded snapshot (which never stores it), Extend's delta merge, a
// subgraph, and a Rebuilder reused from a larger graph to a smaller one and
// back, where a slot the rebuild failed to reset would read stale. Two
// first calls racing on a fresh graph must both see a correct index.
func TestEdgePositions(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	edges := randomEdges(r, 60, 3000, 40) // unsorted, with ties and self-loops
	sorted := slices.Clone(edges)
	slices.SortStableFunc(sorted, byTime)
	base := FromEdges(sorted)
	checkEdgePositions(t, "FromEdges", base)
	checkEdgePositions(t, "unsorted", FromEdges(edges))

	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveFile(path, base); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		g, err := LoadFile(path, LoadOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		checkEdgePositions(t, "LoadFile", g)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, base); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkEdgePositions(t, "ReadSnapshot", snap)
	head := FromEdges(sorted[:2000])
	checkEdgePositions(t, "Extend base", head)
	if _, _, _, ok := tailFits(head, sorted[2000:]); !ok {
		t.Fatal("the tail does not take Extend's merge path")
	}
	checkEdgePositions(t, "Extend", Extend(head, sorted[2000:]))
	checkEdgePositions(t, "InducedSubgraph", base.InducedSubgraph([]NodeID{0, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29}))

	var rb Rebuilder
	for _, in := range [][]Edge{edges, edges[:400], sorted[:50], edges} {
		checkEdgePositions(t, "Rebuilder", rebuild(&rb, in))
	}

	fresh := FromEdges(edges)
	var got [2][][2]int32
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = EdgePositions(fresh)
		}()
	}
	wg.Wait()
	if !slices.Equal(got[0], got[1]) {
		t.Fatal("racing first calls built different indexes")
	}
	checkEdgePositions(t, "raced", fresh)
}

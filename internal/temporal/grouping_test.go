package temporal

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceGroupedIndex rebuilds g's grouped per-pair index from its edge
// columns alone, the way every builder did before the transposition pass:
// collect each node's half-edges in EdgeID order and stable-sort them by
// neighbor. It shares no code with groupByTransposition, so a test against
// it does not compare the routine with itself. Only the grouped-index
// columns of the returned Graph are filled.
func referenceGroupedIndex(g *Graph) *Graph {
	type half struct {
		id    EdgeID
		t     Timestamp
		other NodeID
		out   bool
	}
	per := make([][]half, g.numNodes)
	for i := range g.ts {
		u, v := g.src[i], g.dst[i]
		per[u] = append(per[u], half{EdgeID(i), g.ts[i], v, true})
		per[v] = append(per[v], half{EdgeID(i), g.ts[i], u, false})
	}
	ref := &Graph{nbrOff: make([]int, g.numNodes+1)}
	for u, hs := range per {
		sort.SliceStable(hs, func(a, b int) bool { return hs[a].other < hs[b].other })
		ref.nbrOff[u] = len(ref.nbrKey)
		for j, x := range hs {
			if j == 0 || x.other != hs[j-1].other {
				ref.nbrKey = append(ref.nbrKey, x.other)
				ref.grpOff = append(ref.grpOff, len(ref.grpID))
			}
			ref.grpID = append(ref.grpID, x.id)
			ref.grpTime = append(ref.grpTime, x.t)
			ref.grpOther = append(ref.grpOther, x.other)
			ref.grpOut = append(ref.grpOut, x.out)
		}
	}
	ref.nbrOff[g.numNodes] = len(ref.nbrKey)
	ref.grpOff = append(ref.grpOff, len(ref.grpID))
	return ref
}

func checkGroupedIndex(t *testing.T, ctx string, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	ref := referenceGroupedIndex(g)
	for _, c := range []struct {
		name string
		same bool
	}{
		{"nbrOff", slices.Equal(g.nbrOff, ref.nbrOff)},
		{"nbrKey", slices.Equal(g.nbrKey, ref.nbrKey)},
		{"grpOff", slices.Equal(g.grpOff, ref.grpOff)},
		{"grpID", slices.Equal(g.grpID, ref.grpID)},
		{"grpTime", slices.Equal(g.grpTime, ref.grpTime)},
		{"grpOther", slices.Equal(g.grpOther, ref.grpOther)},
		{"grpOut", slices.Equal(g.grpOut, ref.grpOut)},
	} {
		if !c.same {
			t.Fatalf("%s: %s differs from the stable-sort reference", ctx, c.name)
		}
	}
}

// groupingCases are self-loop-free edge lists with the node-space size a
// loader would hand buildColumns. Large and small inputs alternate, so one
// Rebuilder walked down the list meets every stale cursor and capacity
// state.
func groupingCases(t *testing.T) []struct {
	name     string
	edges    []Edge
	numNodes int
} {
	rng := rand.New(rand.NewSource(23))
	noLoops := func(edges []Edge) []Edge {
		return slices.DeleteFunc(edges, func(e Edge) bool { return e.From == e.To })
	}
	hub := HubSkewedEdges(rng, 500, 20_000)
	if d := FromEdges(hub).Degree(0); 10*d < 4*2*len(hub) {
		t.Fatalf("hub owns %d of %d half-edges, want >= 40%%", d, 2*len(hub))
	}
	pair := make([]Edge, 6000) // one pair, both directions, tie-heavy and unsorted
	for i := range pair {
		pair[i] = Edge{From: 3, To: 9, Time: Timestamp(rng.Intn(40))}
		if rng.Intn(2) == 0 {
			pair[i].From, pair[i].To = 9, 3
		}
	}
	equal := noLoops(randomEdges(rng, 60, 5000, 1))
	sparse := noLoops(randomEdges(rng, 20, 200, 30))
	for i := range sparse {
		sparse[i].From, sparse[i].To = sparse[i].From*2500+7, sparse[i].To*2500+7
	}
	return []struct {
		name     string
		edges    []Edge
		numNodes int
	}{
		{"hub", hub, 500},
		{"single", []Edge{{From: 4, To: 1, Time: 5}}, 5},
		{"random", noLoops(randomEdges(rng, 300, 20_000, 100)), 300},
		{"empty", nil, 0},
		{"multi-edge pair", append(pair, noLoops(randomEdges(rng, 12, 300, 40))...), 12},
		{"sparse ids", sparse, 50_000},
		{"equal times", equal, 60},
	}
}

// The grouped per-pair index against an independent reference: through the
// parallel core at every worker count, and through one reused Rebuilder.
func TestGroupedIndexMatchesStableSortReference(t *testing.T) {
	var rb Rebuilder
	for _, tc := range groupingCases(t) {
		src := make([]NodeID, len(tc.edges))
		dst := make([]NodeID, len(tc.edges))
		ts := make([]Timestamp, len(tc.edges))
		for i, e := range tc.edges {
			src[i], dst[i], ts[i] = e.From, e.To, e.Time
		}
		for _, w := range []int{1, 2, 3, 8} {
			g := buildColumnsParallel(slices.Clone(src), slices.Clone(dst), slices.Clone(ts), tc.numNodes, 0, w)
			checkGroupedIndex(t, fmt.Sprintf("%s workers=%d", tc.name, w), g)
		}
		checkGroupedIndex(t, tc.name+" rebuilder", rb.RebuildColumns(src, dst, ts))
	}
}

// The parallel loader's allocation count must not depend on the node count:
// the per-node sort that used to group the index allocated per span.
func TestParallelLoadAllocsIndependentOfNodes(t *testing.T) {
	const nodes, edges = 30_000, 60_000
	rng := rand.New(rand.NewSource(29))
	var buf bytes.Buffer
	for i := 0; i < edges; i++ {
		u := i % nodes // every node touched
		fmt.Fprintf(&buf, "%d %d %d\n", u, (u+1+rng.Intn(nodes-1))%nodes, i)
	}
	data := buf.Bytes()
	avg := testing.AllocsPerRun(3, func() {
		g, err := ReadEdgeList(bytes.NewReader(data), LoadOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != nodes || g.NumEdges() != edges {
			t.Fatalf("loaded %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		}
	})
	if avg >= 1000 {
		t.Fatalf("Workers: 2 load of %d nodes allocates %.0f times, want < 1000", nodes, avg)
	}
}

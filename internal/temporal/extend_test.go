package temporal

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// sortedByTime returns edges stably sorted by Time: the order a live feed
// delivers them in, and the order FromEdges assigns EdgeIDs in.
func sortedByTime(edges []Edge) []Edge {
	slices.SortStableFunc(edges, func(a, b Edge) int { return cmp.Compare(a.Time, b.Time) })
	return edges
}

// replayExtend feeds edges to Extend in random batch sizes and holds every
// intermediate graph to Validate and to FromEdges of the prefix it covers.
// It returns how many steps took the merge path.
func replayExtend(t *testing.T, ctx string, rng *rand.Rand, edges []Edge, maxBatch int) (merged int) {
	t.Helper()
	var g *Graph
	for lo := 0; lo < len(edges); {
		hi := min(lo+1+rng.Intn(maxBatch), len(edges))
		if g != nil {
			if _, _, _, ok := tailFits(g, edges[lo:hi]); ok {
				merged++
			}
		}
		g = Extend(g, edges[lo:hi])
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: after %d edges: %v", ctx, hi, err)
		}
		graphsEqual(t, ctx, g, FromEdges(edges[:hi]))
		lo = hi
	}
	return merged
}

func TestExtendMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	equalTimes := randomEdges(rng, 30, 600, 1)
	growing := sortedByTime(randomEdges(rng, 40, 900, 5000))
	for i := range growing { // the node space grows with the feed
		shift := NodeID(i / 30)
		growing[i].From += shift
		growing[i].To += shift
	}
	loops := sortedByTime(randomEdges(rng, 12, 700, 300))
	for i := range loops {
		if i%3 == 0 {
			loops[i].To = loops[i].From
		}
	}
	corpora := []struct {
		name     string
		edges    []Edge
		maxBatch int
	}{
		{"random", sortedByTime(randomEdges(rng, 60, 1500, 4000)), 40},
		{"random-ties", sortedByTime(randomEdges(rng, 25, 1200, 40)), 25},
		{"hub", sortedByTime(hubEdges(rng, 80, 1500)), 30},
		{"equal-timestamps", equalTimes, 20},
		{"self-loops", loops, 15},
		{"growing-nodes", growing, 20},
		{"big-batches", sortedByTime(randomEdges(rng, 50, 1500, 2000)), 700},
	}
	for _, c := range corpora {
		for trial := 0; trial < 4; trial++ {
			if merged := replayExtend(t, c.name, rng, c.edges, c.maxBatch); merged == 0 {
				t.Fatalf("%s: no step took the merge path", c.name)
			}
		}
	}
}

func TestExtendEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := sortedByTime(randomEdges(rng, 20, 200, 100))
	base := FromEdges(edges[:150])
	empty := FromEdges(nil)

	graphsEqual(t, "nil base", Extend(nil, edges), FromEdges(edges))
	graphsEqual(t, "empty base", Extend(empty, edges), FromEdges(edges))
	graphsEqual(t, "empty both", Extend(empty, nil), empty)

	// An empty tail copies: same graph, no shared storage.
	same := Extend(base, nil)
	graphsEqual(t, "empty tail", same, base)
	if same == base || &same.ts[0] == &base.ts[0] || &same.incID[0] == &base.incID[0] {
		t.Fatal("empty tail: result aliases base")
	}

	// A tail of self-loops alone moves only the dropped count.
	loopTail := []Edge{{From: 3, To: 3, Time: 1000}, {From: 90, To: 90, Time: 1001}}
	graphsEqual(t, "loops only", Extend(base, loopTail), FromEdges(append(slices.Clone(edges[:150]), loopTail...)))

	// A tail heavier than its base rebuilds.
	small := FromEdges(edges[:10])
	if _, _, _, ok := tailFits(small, edges[10:]); ok {
		t.Fatal("tail of 190 fits a base of 10")
	}
	graphsEqual(t, "tail outweighs base", Extend(small, edges[10:]), FromEdges(edges))

	// Extend leaves its base untouched.
	before := FromEdges(edges[:150])
	Extend(base, edges[150:])
	graphsEqual(t, "base unchanged", base, before)
}

// TestExtendFallback drives inputs that break a merge condition: each must
// be refused by tailFits and still come out as FromEdges builds it.
func TestExtendFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	edges := sortedByTime(randomEdges(rng, 20, 300, 500))
	baseEdges := edges[:200]
	base := FromEdges(baseEdges)
	lastT := base.ts[len(base.ts)-1]

	unsorted := slices.Clone(edges[200:])
	unsorted[3], unsorted[40] = unsorted[40], unsorted[3]
	trimmed := FromEdges(baseEdges)
	trimmed.numNodes++ // an isolated last node, as a hand-made snapshot may carry
	trimmed.incOff = append(trimmed.incOff, trimmed.incOff[len(trimmed.incOff)-1])
	trimmed.nbrOff = append(trimmed.nbrOff, trimmed.nbrOff[len(trimmed.nbrOff)-1])
	if err := trimmed.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		base *Graph
		tail []Edge
	}{
		{"earlier than base", base, []Edge{{From: 1, To: 2, Time: lastT - 1}, {From: 2, To: 3, Time: lastT + 5}}},
		{"unsorted", base, unsorted},
		{"negative source", base, []Edge{{From: -1, To: 2, Time: lastT}, {From: 2, To: 3, Time: lastT + 1}}},
		{"negative target", base, []Edge{{From: 4, To: 5, Time: lastT}, {From: 2, To: -7, Time: lastT + 1}}},
		{"isolated last node", trimmed, edges[200:]},
	}
	for _, c := range cases {
		if _, _, _, ok := tailFits(c.base, c.tail); ok {
			t.Fatalf("%s: tailFits accepted it", c.name)
		}
		got := Extend(c.base, c.tail)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		graphsEqual(t, c.name, got, FromEdges(append(slices.Clone(baseEdges), c.tail...)))
	}
	// The same tails in order are accepted: the refusals above are about
	// the broken condition, not the corpus.
	if _, _, _, ok := tailFits(base, edges[200:]); !ok {
		t.Fatal("tailFits refused a sorted, later, non-negative tail")
	}
}

package temporal

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Values derived from a graph's columns alone live in the graph's derived
// slots: each is built on first use and kept for the graph's life, never
// written to a snapshot. Every constructor starts with empty slots, and a
// Rebuilder empties them all in one assignment when it refills the columns.
// Each value is read through a package function rather than a method, so
// the slots stay internal to the module and hare.Graph (an alias) gains no
// method.

// derived holds a graph's derived slots.
type derived struct {
	edgePos   slot[[][2]int32] // EdgePositions
	pairLinks slot[[][2]int32] // PairLinks
	thrd      slot[int]        // DefaultDegreeThreshold
	forward   slot[Forward]    // ForwardIncidences
	ranking   slot[[]int32]    // PivotRanking
}

// slot holds one derived value. The atomic pointer is the fast path; the
// first callers serialise on mu, so racing first calls build the value once
// and all return that one build.
type slot[T any] struct {
	v  atomic.Pointer[T]
	mu sync.Mutex
}

// get returns the slot's value, building it from g on first use.
func (s *slot[T]) get(g *Graph, build func(*Graph) T) T {
	if p := s.v.Load(); p != nil {
		return *p
	}
	return s.fill(g, build)
}

// fill is get's slow path, a function of its own so that get inlines into
// the kernels' per-pivot reads.
func (s *slot[T]) fill(g *Graph, build func(*Graph) T) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.v.Load(); p != nil {
		return *p // another caller built it while this one waited
	}
	v := build(g)
	s.v.Store(&v)
	return v
}

// EdgePositions returns, for every edge e, its offsets in the incident
// sequences of its endpoints: S_src[e] holds e at pos[e][0] and S_dst[e] at
// pos[e][1]. It is derived in one pass over the incident index on first
// call and kept on the graph (8 bytes per edge). The caller must not modify
// the result.
func EdgePositions(g *Graph) [][2]int32 {
	return g.derived.edgePos.get(g, edgePositions)
}

func edgePositions(g *Graph) [][2]int32 {
	pos := make([][2]int32, len(g.ts))
	for u := 0; u < g.numNodes; u++ {
		base := g.incOff[u]
		for j := base; j < g.incOff[u+1]; j++ {
			side := 1
			if g.incOut[j] {
				side = 0
			}
			pos[g.incID[j]][side] = int32(j - base)
		}
	}
	return pos
}

// PairLinks returns, for every edge e, the edges next to it among the edges
// between its two endpoints, in either direction: links[e][0] is the
// previous one in EdgeID order and links[e][1] the next, −1 where there is
// none. It is derived in one pass over the grouped per-pair index on first
// call and kept on the graph (8 bytes per edge). The caller must not modify
// the result.
func PairLinks(g *Graph) [][2]int32 {
	return g.derived.pairLinks.get(g, pairLinks)
}

func pairLinks(g *Graph) [][2]int32 {
	links := make([][2]int32, len(g.ts))
	for u := 0; u < g.numNodes; u++ {
		for k := g.nbrOff[u]; k < g.nbrOff[u+1]; k++ {
			if g.nbrKey[k] < NodeID(u) {
				continue // each pair once, from its lower node
			}
			prev := EdgeID(-1)
			for _, id := range g.grpID[g.grpOff[k]:g.grpOff[k+1]] {
				links[id][0] = prev
				if prev >= 0 {
					links[prev][1] = id
				}
				prev = id
			}
			links[prev][1] = -1
		}
	}
	return links
}

// DefaultDegreeThreshold returns the paper's default degree threshold thrd,
// TopKDegreeThreshold(g, 20), computed on first call and kept on the graph.
func DefaultDegreeThreshold(g *Graph) int {
	return g.derived.thrd.get(g, func(g *Graph) int { return TopKDegreeThreshold(g, 20) })
}

// Precedes reports whether v comes before u, whose temporal degree is du, in
// the (temporal degree, ID) order that decides triangle ownership: every
// triangle belongs to its lowest vertex in this order. It is a strict total
// order on one graph's nodes.
func Precedes(g *Graph, v, u NodeID, du int) bool {
	dv := g.Degree(v)
	return dv < du || dv == du && v < u
}

// Forward is the forward half of the incident index: for every node u, the
// offsets into S_u of the half-edges whose far end follows u in the
// ownership order (Precedes), in time order. Each edge is forward at exactly
// one of its endpoints, so the entries number NumEdges. next[k] is the index
// among u's entries of the first entry after k whose far end differs from
// entry k's (the count of u's entries when there is none), so a walk skips a
// run of multi-edges to one neighbour in one step.
type Forward struct {
	off  []int32 // n+1 offsets into pos and next
	pos  []int32
	next []int32
}

// Of returns u's forward entries: pos holds their ascending offsets into
// S_u, next their next-different-neighbour indexes into pos. The caller must
// not modify them.
func (f Forward) Of(u NodeID) (pos, next []int32) {
	if u < 0 || int(u) >= len(f.off)-1 {
		return nil, nil
	}
	lo, hi := f.off[u], f.off[u+1]
	return f.pos[lo:hi], f.next[lo:hi]
}

// ForwardIncidences returns g's forward incidences, derived on first call —
// a counting pass over the grouped index, then a filling pass over the
// incident index, each split across GOMAXPROCS goroutines by half-edge
// count — and kept on the graph (8 bytes per edge and 4 per node).
func ForwardIncidences(g *Graph) Forward {
	return g.derived.forward.get(g, forwardIncidences)
}

func forwardIncidences(g *Graph) Forward {
	n := g.numNodes
	f := Forward{off: make([]int32, n+1), pos: make([]int32, len(g.ts)), next: make([]int32, len(g.ts))}
	workers := 1
	if len(g.ts) >= 8192 { // below it the fan-out costs more than the pass
		workers = runtime.GOMAXPROCS(0)
	}
	fb := forwardBuild{g, f, nodeRangesByWeight(nil, g.incOff, workers)}
	k := len(fb.ranges) - 1
	// Pass 1 counts each node's forward entries into off[u+1]; the prefix
	// sum turns the counts into offsets; pass 2 fills each node's entries.
	parallelRanges(fb, k, k, countForward)
	for u := 0; u < n; u++ {
		f.off[u+1] += f.off[u]
	}
	parallelRanges(fb, k, k, fillForward)
	return f
}

// forwardBuild is the state of one ForwardIncidences build: the node ranges
// [ranges[r], ranges[r+1]) are its units, balanced by half-edge count.
type forwardBuild struct {
	g      *Graph
	f      Forward
	ranges []int
}

// countForward sets off[u+1] to the number of forward entries of each node
// u in units [a, b), one order test per distinct neighbour: the group of
// E(u, v) in the grouped index holds its multi-edges.
func countForward(fb forwardBuild, a, b int) {
	g := fb.g
	for u := fb.ranges[a]; u < fb.ranges[b]; u++ {
		du := g.incOff[u+1] - g.incOff[u]
		c := 0
		for k := g.nbrOff[u]; k < g.nbrOff[u+1]; k++ {
			if !Precedes(g, g.nbrKey[k], NodeID(u), du) {
				c += g.grpOff[k+1] - g.grpOff[k]
			}
		}
		fb.f.off[u+1] = int32(c)
	}
}

// fillForward writes the entries of each node in units [a, b): the
// positions in order, then the next indexes from the back.
func fillForward(fb forwardBuild, a, b int) {
	g := fb.g
	for u := fb.ranges[a]; u < fb.ranges[b]; u++ {
		pos, next := fb.f.Of(NodeID(u))
		if len(pos) == 0 {
			continue
		}
		others := g.incOther[g.incOff[u]:g.incOff[u+1]]
		k := 0
		for p, v := range others {
			if !Precedes(g, v, NodeID(u), len(others)) {
				pos[k] = int32(p)
				k++
			}
		}
		end := int32(len(pos))
		next[end-1] = end
		for k := len(pos) - 2; k >= 0; k-- {
			if others[pos[k]] != others[pos[k+1]] {
				next[k] = int32(k + 1)
			} else {
				next[k] = next[k+1]
			}
		}
	}
}

// PivotWeight is the sampling weight of edge e: 1 + d(src)·d(dst), the
// degree product rounded to float64 before the 1 is added (the explicit
// conversion keeps a compiler from fusing the two into one rounding). It is
// the weight approx.NewPlan allocates draws by, +1 being its floor, and the
// key PivotRanking orders the edges by.
func PivotWeight(g *Graph, e EdgeID) float64 {
	return float64(float64(g.Degree(g.src[e]))*float64(g.Degree(g.dst[e]))) + 1
}

// PivotRanking returns the edge IDs ranked by PivotWeight descending, ID
// ascending on ties: the sampler's rank order, which depends on the graph
// alone. It is derived by RankByWeight on first call and kept on the graph
// (4 bytes per edge). The caller must not modify the result.
func PivotRanking(g *Graph) []int32 {
	return g.derived.ranking.get(g, func(g *Graph) []int32 {
		wts := make([]float64, len(g.ts))
		for e := range wts {
			wts[e] = PivotWeight(g, EdgeID(e))
		}
		return RankByWeight(wts)
	})
}

// RankByWeight returns the IDs [0, len(wts)) sorted by weight descending, ID
// ascending on ties. The weights must be positive and finite. It is an LSD
// radix sort on order-inverted IEEE bits: positive floats' bit patterns
// order like their values, so complementing the bits yields an ascending
// integer sort == descending float sort, and radix stability turns
// ascending-ID initialization into the tie-break. O(len(wts)) per pass, four
// 16-bit passes (a pass whose digit every key shares is skipped), identical
// output to a comparison sort on every input.
func RankByWeight(wts []float64) []int32 {
	type pair struct {
		key uint64
		id  int32
	}
	n := len(wts)
	perm := make([]int32, n)
	if n == 0 {
		return perm
	}
	pairs := make([]pair, n)
	for id := range wts {
		pairs[id] = pair{^math.Float64bits(wts[id]), int32(id)}
	}
	tmp := make([]pair, n)
	var count [1 << 16]int32
	for shift := 0; shift < 64; shift += 16 {
		clear(count[:])
		for i := range pairs {
			count[uint16(pairs[i].key>>shift)]++
		}
		if count[uint16(pairs[0].key>>shift)] == int32(n) {
			continue // all keys share this digit: the pass is a no-op
		}
		pos := int32(0)
		for d := range count {
			c := count[d]
			count[d] = pos
			pos += c
		}
		for i := range pairs {
			d := uint16(pairs[i].key >> shift)
			tmp[count[d]] = pairs[i]
			count[d]++
		}
		pairs, tmp = tmp, pairs
	}
	for i := range pairs {
		perm[i] = pairs[i].id
	}
	return perm
}

package temporal

import (
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

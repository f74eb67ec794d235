package temporal

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Parallel graph finalisation: the column-level core behind
// Builder.BuildParallel and the parallel loader. Every stage is a
// deterministic reformulation of Builder.Build — a stable timestamp sort
// (skipped for chronological input) via sorted segments merged
// left-to-right, a counting-sort CSR scatter with per-(worker, node) bases,
// and Build's own sort-free grouping pass, groupByTransposition, run per
// destination-node range — so the resulting Graph is bit-identical to
// Build's, in time linear in the edges whatever the degree skew.

// minParallelBuildEdges is the edge count below which buildColumns runs
// single-threaded; goroutine fan-out costs more than it saves there.
const minParallelBuildEdges = 1 << 13

// BuildParallel is Build with the sort and index construction fanned out
// over `workers` goroutines (0 selects GOMAXPROCS). The resulting graph is
// bit-identical to Build's: same EdgeID assignment, same index layout. Like
// Build, it consumes the Builder, which must not be reused afterwards.
func (b *Builder) BuildParallel(workers int) *Graph {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := len(b.edges)
	if workers == 1 || m < minParallelBuildEdges {
		return b.Build()
	}
	src := make([]NodeID, m)
	dst := make([]NodeID, m)
	ts := make([]Timestamp, m)
	parallelRanges(m, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := b.edges[i]
			src[i], dst[i], ts[i] = e.From, e.To, e.Time
		}
	})
	return buildColumns(src, dst, ts, int(b.maxNode)+1, b.selfLoops, workers) // m > 0 here
}

// buildColumns finalises a Graph from input-order edge columns. src/dst/ts
// are consumed (reordered into the graph). numNodes and selfLoops follow
// Builder semantics: numNodes is maxNode+1 over the kept edges (0 for an
// empty graph), selfLoops the count dropped upstream.
func buildColumns(src, dst []NodeID, ts []Timestamp, numNodes, selfLoops, workers int) *Graph {
	m := len(ts)
	if workers <= 1 || m < minParallelBuildEdges {
		return buildColumnsSeq(src, dst, ts, numNodes, selfLoops)
	}
	if workers > m/4096 {
		workers = max(m/4096, 1)
	}
	return buildColumnsParallel(src, dst, ts, numNodes, selfLoops, workers)
}

// buildColumnsParallel is the parallel core, with no sequential shortcut —
// the tests drive it directly on small inputs.
func buildColumnsParallel(src, dst []NodeID, ts []Timestamp, numNodes, selfLoops, workers int) *Graph {
	m := len(ts)
	n := numNodes
	g := &Graph{numNodes: n, selfLoops: selfLoops}

	// EdgeID order is the stable sort by timestamp: chronological input, as
	// every dataset file of the paper is, keeps its columns as they are.
	g.src, g.dst, g.ts = src, dst, ts
	if !slices.IsSorted(ts) {
		perm := sortedPermByTime(ts, workers)
		g.src = make([]NodeID, m)
		g.dst = make([]NodeID, m)
		g.ts = make([]Timestamp, m)
		parallelRanges(m, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p := perm[i]
				g.src[i], g.dst[i], g.ts[i] = src[p], dst[p], ts[p]
			}
		})
	}

	// CSR incident index as a parallel counting sort: per-(worker, node)
	// counts over contiguous EdgeID ranges, then exclusive bases so worker
	// w's half-edges of node u land after workers <w's — which, with each
	// worker scanning its range in order, keeps every span EdgeID-sorted.
	// The scratch is cw*n ints, so cap the stage's worker count at m/n to
	// keep it proportional to the edge storage itself on sparse graphs
	// (where n approaches m); the stage is bandwidth bound, so the extra
	// workers buy little there anyway.
	cw := workers
	if n > 0 && cw > m/n {
		cw = max(m/n, 1)
	}
	h := 2 * m
	ebounds := make([]int, cw+1)
	for w := 0; w <= cw; w++ {
		ebounds[w] = w * m / cw
	}
	cnt := make([]int, cw*n)
	runConcurrently(cw, func(w int) {
		c := cnt[w*n : (w+1)*n]
		for i := ebounds[w]; i < ebounds[w+1]; i++ {
			c[g.src[i]]++
			c[g.dst[i]]++
		}
	})
	g.incOff = make([]int, n+1)
	parallelRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			t := 0
			for w := 0; w < cw; w++ {
				t += cnt[w*n+u]
			}
			g.incOff[u+1] = t
		}
	})
	for u := 0; u < n; u++ {
		g.incOff[u+1] += g.incOff[u]
	}
	parallelRanges(n, workers, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			run := g.incOff[u]
			for w := 0; w < cw; w++ {
				c := cnt[w*n+u]
				cnt[w*n+u] = run
				run += c
			}
		}
	})
	g.incID = make([]EdgeID, h)
	g.incTime = make([]Timestamp, h)
	g.incOther = make([]NodeID, h)
	g.incOut = make([]bool, h)
	runConcurrently(cw, func(w int) {
		base := cnt[w*n : (w+1)*n]
		for i := ebounds[w]; i < ebounds[w+1]; i++ {
			id := EdgeID(i)
			u, v, t := g.src[i], g.dst[i], g.ts[i]
			p := base[u]
			base[u]++
			g.incID[p], g.incTime[p], g.incOther[p], g.incOut[p] = id, t, v, true
			p = base[v]
			base[v]++
			g.incID[p], g.incTime[p], g.incOther[p], g.incOut[p] = id, t, u, false
		}
	})

	// Grouped per-pair index by transposition, partitioned by destination:
	// each worker owns a node range balanced by half-edge count, scans the
	// whole incident index and writes only its own nodes' spans and cursors,
	// so a hub costs its owner O(d), not a sort. The incident stage's
	// scratch is dead by now and serves as the cursors.
	nbounds := nodeRangesByWeight(g.incOff, workers)
	nranges := len(nbounds) - 1
	g.grpID = make([]EdgeID, h)
	g.grpTime = make([]Timestamp, h)
	g.grpOther = make([]NodeID, h)
	g.grpOut = make([]bool, h)
	g.nbrOff = make([]int, n+1)
	runConcurrently(nranges, func(r int) {
		g.groupByTransposition(cnt[:n], nbounds[r], nbounds[r+1])
		for u := nbounds[r]; u < nbounds[r+1]; u++ {
			lo, hi := g.incOff[u], g.incOff[u+1]
			k := 0
			for j := lo; j < hi; j++ {
				if j == lo || g.grpOther[j] != g.grpOther[j-1] {
					k++
				}
			}
			g.nbrOff[u+1] = k
		}
	})
	for u := 0; u < n; u++ {
		g.nbrOff[u+1] += g.nbrOff[u]
	}
	nk := g.nbrOff[n]
	g.nbrKey = make([]NodeID, nk)
	g.grpOff = make([]int, nk+1)
	runConcurrently(nranges, func(r int) {
		for u := nbounds[r]; u < nbounds[r+1]; u++ {
			k := g.nbrOff[u]
			lo, hi := g.incOff[u], g.incOff[u+1]
			for j := lo; j < hi; j++ {
				if j == lo || g.grpOther[j] != g.grpOther[j-1] {
					g.nbrKey[k] = g.grpOther[j]
					g.grpOff[k] = j
					k++
				}
			}
		}
	})
	g.grpOff[nk] = h
	return g
}

// sortedPermByTime returns the stable sort of [0, len(ts)) by timestamp:
// contiguous segments sorted concurrently by (time, input index) — a total
// order, so the faster non-stable sort is safe — then merged in pairs level
// by level. A left segment holds only smaller input indices than its right
// neighbour, so taking the left element on timestamp ties keeps the merge
// stable.
func sortedPermByTime(ts []Timestamp, workers int) []int32 {
	m := len(ts)
	perm := make([]int32, m)
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * m / workers
	}
	runConcurrently(workers, func(w int) {
		seg := perm[bounds[w]:bounds[w+1]]
		for i := range seg {
			seg[i] = int32(bounds[w] + i)
		}
		slices.SortFunc(seg, func(a, b int32) int {
			return cmp.Or(cmp.Compare(ts[a], ts[b]), cmp.Compare(a, b))
		})
	})
	tmp := make([]int32, m)
	for len(bounds) > 2 {
		pairs := (len(bounds) - 1) / 2
		nb := make([]int, 0, pairs+2)
		nb = append(nb, 0)
		runConcurrently(pairs, func(p int) {
			lo, mid, hi := bounds[2*p], bounds[2*p+1], bounds[2*p+2]
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				a, b := perm[i], perm[j]
				if ts[a] <= ts[b] { // tie → left, preserving input order
					tmp[k] = a
					i++
				} else {
					tmp[k] = b
					j++
				}
				k++
			}
			copy(tmp[k:hi], perm[i:mid])
			copy(tmp[k+(mid-i):hi], perm[j:hi])
		})
		for p := 0; p < pairs; p++ {
			nb = append(nb, bounds[2*p+2])
		}
		if len(bounds)%2 == 0 { // odd segment count: carry the last as is
			copy(tmp[bounds[len(bounds)-2]:], perm[bounds[len(bounds)-2]:])
			nb = append(nb, bounds[len(bounds)-1])
		}
		perm, tmp = tmp, perm
		bounds = nb
	}
	return perm
}

// buildColumnsSeq is buildColumns through Builder.Build's sequential core,
// the reference the parallel path must match.
func buildColumnsSeq(src, dst []NodeID, ts []Timestamp, numNodes, selfLoops int) *Graph {
	edges := make([]Edge, len(ts))
	for i := range ts {
		edges[i] = Edge{From: src[i], To: dst[i], Time: ts[i]}
	}
	var rb Rebuilder
	return rb.build(edges, selfLoops, NodeID(max(numNodes-1, 0)))
}

// nodeRangesByWeight splits [0, n) into up to `workers` contiguous ranges
// of roughly equal half-edge count, using the CSR offsets as weights.
func nodeRangesByWeight(incOff []int, workers int) []int {
	n := len(incOff) - 1
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := []int{0}
	h := incOff[n]
	for w := 1; w < workers; w++ {
		target := w * h / workers
		// first node whose span starts at or after the target weight
		u := sort.SearchInts(incOff, target)
		if u > n {
			u = n
		}
		if u <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, u)
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// parallelRanges splits [0, n) into contiguous pieces and runs fn on each
// concurrently.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// runConcurrently runs fn(0..k-1) on k goroutines and waits.
func runConcurrently(k int, fn func(i int)) {
	if k <= 1 {
		if k == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

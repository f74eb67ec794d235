package temporal

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// The one CSR core: every Graph except Extend's delta merge and a decoded
// snapshot is finalised here from input-order edge columns — by
// Builder.Build (FromEdges, the subgraphs, internal/gen), by
// RebuildColumns, and by the text loader at its worker count. Every stage
// is linear in the edges whatever the degree skew: a stable radix sort by
// timestamp (skipped for chronological input), a counting-sort CSR scatter
// with per-(worker, node) bases, and the per-pair index by
// groupByTransposition per destination-node range. The result does not
// depend on the worker count. Each stage is a top-level function over
// the Rebuilder that holds the build's storage, run by parallelRanges, so a
// one-worker build runs inline and a reused Rebuilder allocates nothing.

// buildColumns finalises a Graph from input-order edge columns. src/dst/ts
// are consumed (they may become the graph's columns). numNodes and
// selfLoops follow Builder semantics: numNodes is maxNode+1 over the kept
// edges (0 for an empty graph), selfLoops the count dropped upstream.
// Inputs below 8192 edges build on one goroutine, which costs less than the
// fan-out there.
func buildColumns(src, dst []NodeID, ts []Timestamp, numNodes, selfLoops, workers int) *Graph {
	return buildColumnsParallel(src, dst, ts, numNodes, selfLoops, min(workers, max(len(ts)/4096, 1)))
}

// buildColumnsParallel is buildColumns into fresh storage without the
// worker cap — the tests drive it directly on small inputs.
func buildColumnsParallel(src, dst []NodeID, ts []Timestamp, numNodes, selfLoops, workers int) *Graph {
	return new(Rebuilder).fromColumns(src, dst, ts, numNodes, selfLoops, max(workers, 1))
}

// fromColumns is the core behind buildColumns and RebuildColumns: it builds
// rb's graph from the columns, reusing rb's storage wherever capacities
// allow.
func (rb *Rebuilder) fromColumns(src, dst []NodeID, ts []Timestamp, numNodes, selfLoops, workers int) *Graph {
	if rb.g == nil {
		rb.g = &Graph{}
	}
	g := rb.g
	g.numNodes, g.selfLoops = numNodes, selfLoops
	g.edgesAoS.Store(nil) // invalidate a reused graph's lazy derived caches
	g.edgePos.Store(nil)
	m, n := len(ts), numNodes

	// EdgeID order is the stable sort by timestamp: chronological input, as
	// every dataset file of the paper is, becomes the graph's columns as it
	// is. Otherwise it is permuted into the previous graph's columns. The
	// set of columns left over is the spare the next RebuildColumns fills.
	if slices.IsSorted(ts) {
		rb.spare = Builder{src: g.src, dst: g.dst, ts: g.ts}
		g.src, g.dst, g.ts = src, dst, ts
	} else {
		rb.spare = Builder{src: src, dst: dst, ts: ts}
		rb.sortByTime()
		g.src, g.dst, g.ts = grow(g.src, m), grow(g.dst, m), grow(g.ts, m)
		parallelRanges(rb, m, workers, permuteEdges)
	}

	// CSR incident index as a parallel counting sort: per-(worker, node)
	// counts over contiguous EdgeID ranges, then exclusive bases so worker
	// w's half-edges of node u land after workers <w's — which, with each
	// worker scanning its range in order, keeps every span EdgeID-sorted.
	// The scratch is cw*n ints, so cap the stage's worker count at m/n to
	// keep it proportional to the edge storage itself on sparse graphs
	// (where n approaches m); the stage is bandwidth bound, so the extra
	// workers buy little there anyway.
	rb.cw = workers
	if n > 0 && rb.cw > m/n {
		rb.cw = max(m/n, 1)
	}
	rb.cnt = grow(rb.cnt, rb.cw*n)
	clear(rb.cnt)
	parallelRanges(rb, rb.cw, rb.cw, countIncident)
	g.incOff = grow(g.incOff, n+1)
	g.incOff[0] = 0
	parallelRanges(rb, n, workers, sumCounts)
	for u := 0; u < n; u++ {
		g.incOff[u+1] += g.incOff[u]
	}
	parallelRanges(rb, n, workers, workerBases)
	h := 2 * m
	g.incID = grow(g.incID, h)
	g.incTime = grow(g.incTime, h)
	g.incOther = grow(g.incOther, h)
	g.incOut = grow(g.incOut, h)
	parallelRanges(rb, rb.cw, rb.cw, scatterIncident)

	// Grouped per-pair index by transposition, partitioned by destination:
	// each worker owns a node range balanced by half-edge count, scans the
	// whole incident index and writes only its own nodes' spans and cursors,
	// so a hub costs its owner O(d), not a sort. The incident stage's
	// scratch is dead by now and serves as the cursors.
	rb.nodes = nodeRangesByWeight(rb.nodes[:0], g.incOff, workers)
	ranges := len(rb.nodes) - 1
	g.grpID = grow(g.grpID, h)
	g.grpTime = grow(g.grpTime, h)
	g.grpOther = grow(g.grpOther, h)
	g.grpOut = grow(g.grpOut, h)
	g.nbrOff = grow(g.nbrOff, n+1)
	g.nbrOff[0] = 0
	parallelRanges(rb, ranges, ranges, groupNodes)
	for u := 0; u < n; u++ {
		g.nbrOff[u+1] += g.nbrOff[u]
	}
	nk := g.nbrOff[n]
	g.nbrKey = grow(g.nbrKey, nk)
	g.grpOff = grow(g.grpOff, nk+1)
	parallelRanges(rb, ranges, ranges, groupBounds)
	g.grpOff[nk] = h
	return g
}

// radixBits is the digit width of sortByTime: 2048 buckets, whose counts
// stay in L1, and at most six passes for any int64 time span.
const radixBits = 11

// sortByTime sets rb.perm to the stable sort of the input edges (rb.spare)
// by timestamp: an LSD radix sort of the edge indices on ts − min(ts), with
// only the passes the time span needs. The keys are differences taken in
// uint64, so even a span over the whole int64 range sorts. One pass over
// the times fills every digit's histogram; each pass then scatters stably,
// so ties keep their input order, and a pass whose digit is the same for
// every edge is skipped. It runs on one goroutine. Measured on 2 vCPUs
// only (BenchmarkBuildParallel, 240k unsorted edges), it beat the
// concurrent comparison sort it replaced at 1, 4 and 8 build workers; with
// more cores that sort could win back some ground.
func (rb *Rebuilder) sortByTime() {
	const buckets = 1 << radixBits
	ts := rb.spare.ts
	lo, hi := ts[0], ts[0]
	for _, t := range ts {
		lo, hi = min(lo, t), max(hi, t)
	}
	base := uint64(lo)
	passes := (bits.Len64(uint64(hi)-base) + radixBits - 1) / radixBits
	rb.cnt = grow(rb.cnt, passes*buckets)
	clear(rb.cnt)
	for _, t := range ts {
		k := uint64(t) - base
		for p := range passes {
			rb.cnt[p*buckets+int(k>>(p*radixBits)%buckets)]++
		}
	}
	m := len(ts)
	rb.perm, rb.tmp = grow(rb.perm, m), grow(rb.tmp, m)
	for i := range rb.perm {
		rb.perm[i] = int32(i)
	}
	for p := range passes {
		shift, c := p*radixBits, rb.cnt[p*buckets:(p+1)*buckets]
		if c[(uint64(ts[0])-base)>>shift%buckets] == m {
			continue
		}
		at := 0
		for d, n := range c {
			c[d], at = at, at+n
		}
		for _, i := range rb.perm {
			d := (uint64(ts[i]) - base) >> shift % buckets
			rb.tmp[c[d]] = i
			c[d]++
		}
		rb.perm, rb.tmp = rb.tmp, rb.perm
	}
}

func permuteEdges(rb *Rebuilder, lo, hi int) {
	g, in := rb.g, &rb.spare
	for i := lo; i < hi; i++ {
		p := rb.perm[i]
		g.src[i], g.dst[i], g.ts[i] = in.src[p], in.dst[p], in.ts[p]
	}
}

// edgeRange is worker w's contiguous EdgeID range in the incident stages.
func (rb *Rebuilder) edgeRange(w int) (lo, hi int) {
	m := len(rb.g.ts)
	return w * m / rb.cw, (w + 1) * m / rb.cw
}

func countIncident(rb *Rebuilder, lo, hi int) {
	g, n := rb.g, rb.g.numNodes
	for w := lo; w < hi; w++ {
		c := rb.cnt[w*n : (w+1)*n]
		elo, ehi := rb.edgeRange(w)
		for i := elo; i < ehi; i++ {
			c[g.src[i]]++
			c[g.dst[i]]++
		}
	}
}

func sumCounts(rb *Rebuilder, lo, hi int) {
	n := rb.g.numNodes
	for u := lo; u < hi; u++ {
		t := 0
		for w := 0; w < rb.cw; w++ {
			t += rb.cnt[w*n+u]
		}
		rb.g.incOff[u+1] = t
	}
}

func workerBases(rb *Rebuilder, lo, hi int) {
	n := rb.g.numNodes
	for u := lo; u < hi; u++ {
		run := rb.g.incOff[u]
		for w := 0; w < rb.cw; w++ {
			c := rb.cnt[w*n+u]
			rb.cnt[w*n+u] = run
			run += c
		}
	}
}

func scatterIncident(rb *Rebuilder, lo, hi int) {
	g, n := rb.g, rb.g.numNodes
	for w := lo; w < hi; w++ {
		base := rb.cnt[w*n : (w+1)*n]
		elo, ehi := rb.edgeRange(w)
		for i := elo; i < ehi; i++ {
			id := EdgeID(i)
			u, v, t := g.src[i], g.dst[i], g.ts[i]
			p := base[u]
			base[u]++
			g.incID[p], g.incTime[p], g.incOther[p], g.incOut[p] = id, t, v, true
			p = base[v]
			base[v]++
			g.incID[p], g.incTime[p], g.incOther[p], g.incOut[p] = id, t, u, false
		}
	}
}

// groupNodes fills the grouped spans of node ranges [lo, hi) and counts
// each node's groups into nbrOff[u+1].
func groupNodes(rb *Rebuilder, lo, hi int) {
	g := rb.g
	for r := lo; r < hi; r++ {
		g.groupByTransposition(rb.cnt[:g.numNodes], rb.nodes[r], rb.nodes[r+1])
		for u := rb.nodes[r]; u < rb.nodes[r+1]; u++ {
			k := 0
			for j := g.incOff[u]; j < g.incOff[u+1]; j++ {
				if j == g.incOff[u] || g.grpOther[j] != g.grpOther[j-1] {
					k++
				}
			}
			g.nbrOff[u+1] = k
		}
	}
}

// groupBounds records the groups of node ranges [lo, hi) as (neighbor key,
// offset) pairs.
func groupBounds(rb *Rebuilder, lo, hi int) {
	g := rb.g
	for u := rb.nodes[lo]; u < rb.nodes[hi]; u++ {
		k := g.nbrOff[u]
		for j := g.incOff[u]; j < g.incOff[u+1]; j++ {
			if j == g.incOff[u] || g.grpOther[j] != g.grpOther[j-1] {
				g.nbrKey[k] = g.grpOther[j]
				g.grpOff[k] = j
				k++
			}
		}
	}
}

// groupByTransposition fills the grp columns of nodes [lo, hi) from the
// incident index: the one routine behind every builder's grouped per-pair
// index. It is a sparse-matrix transposition (Gustavson 1978): visiting
// nodes v in ascending order and S_v in EdgeID order, each half-edge
// (v, other=u) is appended at u's cursor as (u, other=v), direction flipped.
// u's span so fills grouped by neighbor ascending and EdgeID-sorted inside
// each group, in O(h) with no comparison, whatever the degree skew. A call
// writes only cur[lo:hi] (scratch) and the spans of [lo, hi), so calls on
// disjoint ranges may run concurrently, with a scheduling-independent result.
func (g *Graph) groupByTransposition(cur []int, lo, hi int) {
	copy(cur[lo:hi], g.incOff[lo:hi])
	for v := 0; v < g.numNodes; v++ {
		for j := g.incOff[v]; j < g.incOff[v+1]; j++ {
			u := int(g.incOther[j])
			if u < lo || u >= hi {
				continue
			}
			p := cur[u]
			cur[u]++
			g.grpID[p], g.grpTime[p], g.grpOther[p], g.grpOut[p] = g.incID[j], g.incTime[j], NodeID(v), !g.incOut[j]
		}
	}
}

// nodeRangesByWeight appends to bounds[:0] the split of [0, n) into up to
// `workers` contiguous ranges of roughly equal half-edge count, using the
// CSR offsets as weights.
func nodeRangesByWeight(bounds, incOff []int, workers int) []int {
	n := len(incOff) - 1
	workers = max(min(workers, n), 1)
	bounds = append(bounds[:0], 0)
	h := incOff[n]
	for w := 1; w < workers; w++ {
		target := w * h / workers
		// first node whose span starts at or after the target weight
		u := min(sort.SearchInts(incOff, target), n)
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

// parallelRanges runs stage(s, lo, hi) on k contiguous pieces of [0, n)
// concurrently and waits; with one piece it runs inline. Stages are
// top-level functions over explicit state, so no closure escapes per call.
func parallelRanges[S any](s S, n, k int, stage func(s S, lo, hi int)) {
	k = min(k, n)
	if k <= 1 {
		stage(s, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			stage(s, lo, hi)
		}(w*n/k, (w+1)*n/k)
	}
	wg.Wait()
}

// grow returns s resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

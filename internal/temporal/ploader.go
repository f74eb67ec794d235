package temporal

import (
	"fmt"
	"math"
	"runtime"
)

// Edge-list ingestion, the one text path at every worker count:
// newline-aligned chunks parsed concurrently by the byte-level fast path
// (parse.go), per-chunk relabel shards merged deterministically in input
// order, and the CSR build fanned out (pbuild.go). The result is
// bit-identical to a line-by-line bufio.Scanner loader over ParseEdgeLine —
// same EdgeIDs, same relabel assignment, same self-loop accounting, and the
// same error on the same line number — which the equivalence tests in
// ploader_test.go enforce against that reference (readEdgeListSeq, in
// seqloader_test.go) over the fuzz corpus and randomized inputs.

// loaderChunk is the loader-specific post-processing of a rawChunk, built
// in the parsing worker: range checks applied, self-loops dropped, and in
// relabel mode ids rewritten to chunk-local dense indices with the shard's
// first-appearance list kept for the deterministic merge.
type loaderChunk struct {
	u, v []int32     // kept rows: node ids, or chunk-local indices when relabeling
	t    []Timestamp // kept rows: timestamps

	loops   int32   // self-loop rows dropped in this chunk
	loopsAt []int32 // MaxEdges mode: self-loops preceding each kept row

	newIDs []int64 // relabel shard: first-appearance raw ids, local-index order
	remap  []NodeID

	err     error // range error (non-relabel mode); rows stop before it
	errLine int32 // 1-based line within the chunk of err

	off     int    // input-order index of the first row, once accepted
	maxNode NodeID // largest node id of the assembled rows
}

var errIDOutOfRange = fmt.Errorf("node id out of range (use Relabel)")

// postLoaderChunk turns raw parsed rows into a loaderChunk, mirroring the
// reference loader's per-line order of operations exactly: relabel (or
// range-check) both endpoints first, then drop self-loops.
func postLoaderChunk(c *rawChunk, opts LoadOptions) {
	lc := &loaderChunk{}
	n := len(c.u)
	lc.u = make([]int32, 0, n)
	lc.v = make([]int32, 0, n)
	lc.t = make([]Timestamp, 0, n)
	if opts.MaxEdges > 0 {
		lc.loopsAt = make([]int32, 0, n)
	}
	if opts.Relabel {
		local := make(map[int64]int32, min(n, 1024))
		assign := func(raw int64) int32 {
			id, ok := local[raw]
			if !ok {
				id = int32(len(lc.newIDs))
				local[raw] = id
				lc.newIDs = append(lc.newIDs, raw)
			}
			return id
		}
		for i := 0; i < n; i++ {
			lu := assign(c.u[i])
			lv := assign(c.v[i])
			if c.u[i] == c.v[i] {
				lc.loops++
				continue
			}
			if opts.MaxEdges > 0 {
				lc.loopsAt = append(lc.loopsAt, lc.loops)
			}
			lc.u = append(lc.u, lu)
			lc.v = append(lc.v, lv)
			lc.t = append(lc.t, c.t[i])
		}
	} else {
		for i := 0; i < n; i++ {
			u64, v64 := c.u[i], c.v[i]
			if u64 < 0 || v64 < 0 || u64 > math.MaxInt32 || v64 > math.MaxInt32 {
				lc.err, lc.errLine = errIDOutOfRange, c.line[i]
				break
			}
			if u64 == v64 {
				lc.loops++
				continue
			}
			if opts.MaxEdges > 0 {
				lc.loopsAt = append(lc.loopsAt, lc.loops)
			}
			lc.u = append(lc.u, int32(u64))
			lc.v = append(lc.v, int32(v64))
			lc.t = append(lc.t, c.t[i])
		}
	}
	c.aux = lc
}

// readEdgeListParallel is ReadEdgeList over an arbitrary chunk source.
func readEdgeListParallel(src chunkSource, opts LoadOptions, workers int) (*Graph, error) {
	var (
		accepted []*loaderChunk // chunks contributing rows, truncated in place
		baseLine int            // lines before the current chunk
		kept     int            // kept edges so far
		loops    int            // self-loops dropped so far
		relabel  map[int64]NodeID
		next     NodeID
		finalErr error
	)
	if opts.Relabel {
		relabel = make(map[int64]NodeID)
	}

	yield := func(c *rawChunk) bool {
		lc := c.aux.(*loaderChunk)
		rows := len(lc.u)
		if opts.Relabel && len(lc.newIDs) > 0 {
			// Deterministic shard merge: within a chunk, first local
			// appearance equals first appearance in the input scan, so
			// walking shards in chunk order reproduces the line-by-line
			// assignment exactly.
			lc.remap = make([]NodeID, len(lc.newIDs))
			for i, raw := range lc.newIDs {
				id, ok := relabel[raw]
				if !ok {
					id = next
					relabel[raw] = id
					next++
				}
				lc.remap[i] = id
			}
		}
		lc.off = kept
		if opts.MaxEdges > 0 && kept+rows >= opts.MaxEdges {
			// Loading stops at the line holding the MaxEdges-th kept
			// edge: later rows, later self-loops, and any error on a later
			// line are never observed.
			take := opts.MaxEdges - kept
			lc.u, lc.v, lc.t = lc.u[:take], lc.v[:take], lc.t[:take]
			loops += int(lc.loopsAt[take-1])
			kept += take
			accepted = append(accepted, lc)
			return false
		}
		kept += rows
		loops += int(lc.loops)
		if rows > 0 {
			accepted = append(accepted, lc)
		}
		if lc.err != nil {
			finalErr = fmt.Errorf("temporal: line %d: %v", baseLine+int(lc.errLine), lc.err)
			return false
		}
		if c.err != nil {
			if c.errRead {
				finalErr = fmt.Errorf("temporal: line %d: read: %v", baseLine+c.errLine, c.err)
			} else {
				finalErr = fmt.Errorf("temporal: line %d: %v", baseLine+c.errLine, c.err)
			}
			return false
		}
		baseLine += c.lines
		return true
	}
	post := func(c *rawChunk) { postLoaderChunk(c, opts) }
	if err := forEachChunk(src, opts.Comma, workers, post, yield); err != nil {
		return nil, fmt.Errorf("temporal: line %d: read: %v", baseLine+1, err)
	}
	if finalErr != nil {
		return nil, finalErr
	}

	a := assembly{chunks: accepted, relabel: opts.Relabel,
		src: make([]NodeID, kept), dst: make([]NodeID, kept), ts: make([]Timestamp, kept)}
	parallelRanges(a, len(accepted), workers, assembleChunks)
	var maxNode NodeID = -1 // so an empty graph has 0 nodes
	for _, lc := range accepted {
		maxNode = max(maxNode, lc.maxNode)
	}
	return buildColumns(a.src, a.dst, a.ts, int(maxNode)+1, loops, workers), nil
}

// assembly is the input-order edge columns being filled from the accepted
// chunks.
type assembly struct {
	chunks   []*loaderChunk
	relabel  bool
	src, dst []NodeID
	ts       []Timestamp
}

// assembleChunks copies chunks [lo, hi) into their rows of the columns,
// translating relabel-mode local indices through each shard's merged remap.
func assembleChunks(a assembly, lo, hi int) {
	for _, lc := range a.chunks[lo:hi] {
		o := lc.off
		var maxNode NodeID = -1
		if a.relabel {
			for i := range lc.u {
				u, v := lc.remap[lc.u[i]], lc.remap[lc.v[i]]
				a.src[o+i], a.dst[o+i] = u, v
				maxNode = max(maxNode, u, v)
			}
		} else {
			copy(a.src[o:], lc.u)
			copy(a.dst[o:], lc.v)
			for i := range lc.u {
				maxNode = max(maxNode, lc.u[i], lc.v[i])
			}
		}
		copy(a.ts[o:], lc.t)
		lc.maxNode = maxNode
	}
}

// loadWorkers resolves LoadOptions.Workers: 0 selects GOMAXPROCS, and
// anything below 1 means one parse goroutine.
func (o LoadOptions) loadWorkers() int {
	w := o.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

package temporal

import (
	"bufio"
	"fmt"
	"io"
)

// readEdgeListSeq is the sequential reference loader the chunk pipeline
// must be bit-identical to at every worker count (ploader_test.go enforces
// the equivalence): a bufio.Scanner loop over ParseEdgeLine, relabeling
// through one map and adding edges to a Builder line by line.
func readEdgeListSeq(r io.Reader, opts LoadOptions) (*Graph, error) {
	b := NewBuilder(1024)
	relabel := map[int64]NodeID{}
	next := NodeID(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		el, skip, err := ParseEdgeLine(sc.Text(), opts.Comma)
		if err != nil {
			return nil, fmt.Errorf("temporal: line %d: %v", lineNo, err)
		}
		if skip {
			continue
		}
		u64, v64, t := el.U, el.V, el.T
		var u, v NodeID
		if opts.Relabel {
			u, next = relabelID(relabel, u64, next)
			v, next = relabelID(relabel, v64, next)
		} else {
			if u64 < 0 || v64 < 0 || u64 > 1<<31-1 || v64 > 1<<31-1 {
				return nil, fmt.Errorf("temporal: line %d: node id out of range (use Relabel)", lineNo)
			}
			u, v = NodeID(u64), NodeID(v64)
		}
		if err := b.AddEdge(u, v, t); err != nil {
			return nil, fmt.Errorf("temporal: line %d: %v", lineNo, err)
		}
		if opts.MaxEdges > 0 && b.Len() >= opts.MaxEdges {
			break
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner failed reading the line after the last complete one,
		// so the error (an I/O failure or a line past the buffer cap)
		// carries that line's number.
		return nil, fmt.Errorf("temporal: line %d: read: %v", lineNo+1, err)
	}
	return b.Build(), nil
}

func relabelID(m map[int64]NodeID, raw int64, next NodeID) (NodeID, NodeID) {
	if id, ok := m[raw]; ok {
		return id, next
	}
	m[raw] = next
	return next, next + 1
}

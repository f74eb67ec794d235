package live

import (
	"bufio"
	"fmt"
	"io"

	"hare/internal/temporal"
)

// IngestText parses a whitespace-separated "u v t" edge list from r (the
// grammar of temporal.ParseEdgeLine: blank and '#'/'%' comment lines are
// skipped) and ingests it as one atomic batch. Validation failures —
// malformed lines, node ids outside [0, MaxNodes), out-of-order timestamps —
// reject the whole batch with the stream tier's line-numbered error
// naming the exact input line, and not one edge has been ingested.
func (d *Dataset) IngestText(r io.Reader) (IngestResult, error) {
	var (
		edges []temporal.Edge
		lines []int // lines[i] is the input line of edges[i]
	)
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scan.Scan() {
		lineNo++
		el, skip, err := temporal.ParseEdgeLine(scan.Text(), false)
		if err != nil {
			d.reject()
			return IngestResult{}, fmt.Errorf("live: line %d: %v", lineNo, err)
		}
		if skip {
			continue
		}
		if el.U < 0 || el.V < 0 || el.U >= MaxNodes || el.V >= MaxNodes {
			d.reject()
			return IngestResult{}, fmt.Errorf("live: line %d: node id out of range (%d,%d)", lineNo, el.U, el.V)
		}
		edges = append(edges, temporal.Edge{
			From: temporal.NodeID(el.U), To: temporal.NodeID(el.V), Time: el.T,
		})
		lines = append(lines, lineNo)
	}
	if err := scan.Err(); err != nil {
		d.reject()
		return IngestResult{}, err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// Order is validated here, against the live watermark under the
	// ingest lock, so the rejection names the input line; AddBatch's own
	// atomic re-check then cannot fail on ordering.
	last, started := d.lastT, d.readings > 0
	for i, e := range edges {
		if started && e.Time < last {
			d.rejected++
			return IngestResult{}, fmt.Errorf("live: line %d: out-of-order edge at t=%d (last %d)", lines[i], e.Time, last)
		}
		started, last = true, e.Time
	}
	if err := d.ctr.AddBatch(edges); err != nil {
		// Stream-level failures the per-line checks can't see (e.g.
		// edge-id-space exhaustion): localise to the batch's line range,
		// as Counter.Feed does.
		d.rejected++
		if len(lines) > 0 {
			err = fmt.Errorf("live: lines %d-%d: %v", lines[0], lines[len(lines)-1], err)
		}
		return IngestResult{}, err
	}
	return d.accepted(edges), nil
}

// reject counts one rejected batch (for errors detected before d.mu is
// held).
func (d *Dataset) reject() {
	d.mu.Lock()
	d.rejected++
	d.mu.Unlock()
}

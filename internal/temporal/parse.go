package temporal

import (
	"bufio"
	"bytes"
)

// Byte-level edge-line parsing: the zero-allocation fast path of the
// ingestion pipeline. ParseEdgeLine (loader.go) remains the reference
// grammar — it is what the stream feeder's scanner path and the tests'
// reference loader execute, and what the fuzz target exercises — and
// parseEdgeLineBytes defers to it on any line outside the common all-ASCII
// shape, so the two can never disagree.

// maxLineLen mirrors a bufio.Scanner buffer limit of 16 MiB so overlong
// lines fail as a scanner loop over ParseEdgeLine fails: a line whose
// content (excluding the newline) reaches this length is a read-level
// error.
const maxLineLen = 16 * 1024 * 1024

// asciiSpace marks the ASCII bytes unicode.IsSpace reports true for — the
// separator set the fast path handles without decoding UTF-8.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseEdgeLineBytes parses one edge-list line with ParseEdgeLine's exact
// grammar, allocating nothing on the common path: ASCII whitespace (plus
// ',' in comma mode) separating three base-10 int64 fields, with extra
// trailing fields ignored. Any deviation — non-ASCII bytes, malformed or
// overflowing numbers, too few fields — falls back to ParseEdgeLine on a
// copied string, so results (including error text) are identical by
// construction.
func parseEdgeLineBytes(line []byte, comma bool) (e EdgeLine, skip bool, err error) {
	i, n := 0, len(line)
	// Blank/comment detection happens on the whitespace-trimmed line BEFORE
	// comma replacement (see ParseEdgeLine), so only whitespace is skipped
	// here; a leading comma never introduces a comment.
	for i < n && asciiSpace[line[i]] {
		i++
	}
	if i == n {
		return EdgeLine{}, true, nil
	}
	if c := line[i]; c == '#' || c == '%' {
		return EdgeLine{}, true, nil
	}
	if line[i] >= 0x80 {
		// Could be a multi-byte unicode space still subject to trimming —
		// let the reference grammar decide.
		return parseEdgeLineSlow(line, comma)
	}
	for f := 0; f < 3; f++ {
		for i < n && (asciiSpace[line[i]] || (comma && line[i] == ',')) {
			i++
		}
		if i == n {
			return parseEdgeLineSlow(line, comma) // fewer than 3 fields
		}
		neg := false
		if c := line[i]; c == '+' || c == '-' {
			neg = c == '-'
			i++
		}
		start := i
		var mag uint64
		for i < n {
			c := line[i]
			if c >= '0' && c <= '9' {
				if mag > (1<<63)/10 {
					return parseEdgeLineSlow(line, comma) // magnitude overflow
				}
				mag = mag*10 + uint64(c-'0')
				i++
				continue
			}
			if asciiSpace[c] || (comma && c == ',') {
				break
			}
			return parseEdgeLineSlow(line, comma) // junk or non-ASCII byte
		}
		if i == start || mag > 1<<63-1 && !(neg && mag == 1<<63) {
			return parseEdgeLineSlow(line, comma) // empty digits or overflow
		}
		v := int64(mag)
		if neg {
			v = -v // mag == 1<<63 wraps to MinInt64, which is exactly -mag
		}
		switch f {
		case 0:
			e.U = v
		case 1:
			e.V = v
		default:
			e.T = v
		}
	}
	// Anything after the third field's terminator is trailing data, which
	// the reference grammar ignores whatever its bytes are.
	return e, false, nil
}

// parseEdgeLineSlow is the fallback onto the reference grammar; the string
// copy allocates, but only lines outside the fast path's shape reach it.
func parseEdgeLineSlow(line []byte, comma bool) (EdgeLine, bool, error) {
	return ParseEdgeLine(string(line), comma)
}

// rawChunk is one newline-aligned piece of the input after parsing: the
// parsed rows as columns in input order, plus the bookkeeping needed to
// reconstruct a line-by-line loader's observable behaviour exactly.
type rawChunk struct {
	idx   int // chunk index in input order
	lines int // lines scanned, up to and including the failing line if any

	u, v []int64 // raw endpoint ids, one entry per parsed edge row
	t    []Timestamp
	line []int32 // 1-based line number within the chunk, per row

	err     error // first failing line's error; parsing stopped there
	errLine int   // 1-based line within the chunk of err
	errRead bool  // err is a read-level failure (overlong line), not a parse error

	aux any // consumer-specific post-processing result (see forEachChunk)
}

// reset clears c for reuse, keeping column capacity. The pipeline workers
// allocate a fresh rawChunk per job (results are handed off downstream);
// reset serves callers that re-parse into one chunk, like the
// zero-allocation regression test.
func (c *rawChunk) reset() {
	c.lines = 0
	c.u, c.v, c.t, c.line = c.u[:0], c.v[:0], c.t[:0], c.line[:0]
	c.err, c.errLine, c.errRead = nil, 0, false
	c.aux = nil
}

// grow ensures the columns can hold rows more entries without reallocating,
// so the parse loop itself performs zero allocations per edge.
func (c *rawChunk) grow(rows int) {
	if cap(c.u)-len(c.u) >= rows {
		return
	}
	need := len(c.u) + rows
	u := make([]int64, len(c.u), need)
	copy(u, c.u)
	c.u = u
	v := make([]int64, len(c.v), need)
	copy(v, c.v)
	c.v = v
	t := make([]Timestamp, len(c.t), need)
	copy(t, c.t)
	c.t = t
	ln := make([]int32, len(c.line), need)
	copy(ln, c.line)
	c.line = ln
}

// parseChunk scans data — full lines, except that the final line may lack
// its trailing newline — appending one row per parsed edge to c's columns.
// It stops at the first failing line, recording the error and its chunk-
// relative line number. The caller is expected to have sized the columns
// via grow (one '\n' bound suffices: every line yields at most one row), so
// the loop allocates only when a line needs the slow-path fallback.
func parseChunk(c *rawChunk, data []byte, comma bool) {
	for len(data) > 0 {
		c.lines++
		var ln []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			ln, data = data[:nl], data[nl+1:]
		} else {
			ln, data = data, nil
		}
		if len(ln) >= maxLineLen {
			c.err, c.errLine, c.errRead = bufio.ErrTooLong, c.lines, true
			return
		}
		el, skip, err := parseEdgeLineBytes(ln, comma)
		if err != nil {
			c.err, c.errLine = err, c.lines
			return
		}
		if skip {
			continue
		}
		c.u = append(c.u, el.U)
		c.v = append(c.v, el.V)
		c.t = append(c.t, el.T)
		c.line = append(c.line, int32(c.lines))
	}
}

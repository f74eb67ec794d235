package temporal

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LoadOptions controls edge-list parsing.
type LoadOptions struct {
	// Comma treats ',' as an additional field separator (SNAP files are
	// whitespace separated, NetworkRepository files are often CSV).
	Comma bool
	// Relabel maps arbitrary non-negative source IDs to a dense [0,n) space.
	// Without it node IDs must already be dense-ish non-negative integers.
	Relabel bool
	// MaxEdges, when > 0, stops after that many kept edges (useful for
	// sampling the head of a very large file). It counts edges added to the
	// graph — self-loops, which the Builder drops, do not count — not input
	// lines; reading stops at the line holding the MaxEdges-th kept edge.
	MaxEdges int
	// Workers is the parallelism of the ingestion pipeline: the input is
	// split into newline-aligned chunks parsed by that many goroutines (a
	// zero-alloc byte-level parser with ParseEdgeLine as its reference
	// grammar) and the CSR build fans out as far. The result does not depend
	// on it: same EdgeIDs, same relabel assignment, and the same error on
	// the same line number as a bufio.Scanner reading line by line. 0
	// selects GOMAXPROCS; 1 or any negative value parses on one goroutine.
	Workers int
}

// EdgeLine is one parsed edge-list line, with raw (possibly sparse or
// out-of-range) node ids: range policy is the caller's.
type EdgeLine struct {
	U, V int64
	T    Timestamp
}

// ParseEdgeLine parses one "u v t" edge-list line, the grammar shared by
// every reader in this repository (batch loading and stream feeding).
// skip reports blank and '#'/'%' comment lines. comma additionally treats
// ',' as a field separator. Extra trailing fields are ignored, so 4-column
// formats such as Bitcoin-OTC's "u,v,rating,t" are NOT auto-detected —
// pre-process those or use exactly three leading columns.
func ParseEdgeLine(line string, comma bool) (e EdgeLine, skip bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' || line[0] == '%' {
		return EdgeLine{}, true, nil
	}
	if comma {
		line = strings.ReplaceAll(line, ",", " ")
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return EdgeLine{}, false, fmt.Errorf("want at least 3 fields, got %d", len(fields))
	}
	if e.U, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return EdgeLine{}, false, fmt.Errorf("bad source node %q: %v", fields[0], err)
	}
	if e.V, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return EdgeLine{}, false, fmt.Errorf("bad target node %q: %v", fields[1], err)
	}
	if e.T, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
		return EdgeLine{}, false, fmt.Errorf("bad timestamp %q: %v", fields[2], err)
	}
	return e, false, nil
}

// ReadEdgeList parses "u v t" lines from r and builds a Graph with
// opts.Workers goroutines (see LoadOptions.Workers).
//
// The line grammar is ParseEdgeLine's.
func ReadEdgeList(r io.Reader, opts LoadOptions) (*Graph, error) {
	w := opts.loadWorkers()
	return readEdgeListParallel(newStreamSource(r, defaultChunkSize, w), opts, w)
}

// LoadFile reads a graph file, dispatching on the extension: ".hare"
// paths load as binary snapshots (see LoadSnapshot — mmapped, zero-parse;
// ".hare.gz" decompresses through the portable snapshot reader), anything
// else parses as an edge-list text file, transparently decompressing ".gz"
// paths. Snapshot loads ignore the parse-oriented LoadOptions — relabeling
// and ordering were fixed when the snapshot was written.
//
// Plain text files are memory-mapped (streamed when mapping is
// unavailable) and chunked in place, while ".gz" files pipeline
// decompression with parsing: the producer goroutine inflates while the
// LoadOptions.Workers goroutines parse.
func LoadFile(path string, opts LoadOptions) (*Graph, error) {
	if strings.HasSuffix(path, ".hare") {
		return LoadSnapshot(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".hare.gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("temporal: gzip %s: %v", path, err)
		}
		defer zr.Close()
		return ReadSnapshot(zr)
	}
	w := opts.loadWorkers()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("temporal: gzip %s: %v", path, err)
		}
		defer zr.Close()
		r = zr
	} else if data, unmap, ok := mmapFile(f); ok {
		defer unmap()
		return readEdgeListParallel(newMemSource(data, defaultChunkSize), opts, w)
	}
	// File-backed: the pipeline may join the producer on early stops, which
	// it must before the deferred Closes run.
	src := newStreamSource(r, defaultChunkSize, w)
	src.fileBacked = true
	return readEdgeListParallel(src, opts, w)
}

// WriteEdgeList writes the graph as "u v t" lines in chronological order.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for i, t := range g.ts {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", g.src[i], g.dst[i], t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes the graph to path, dispatching on the extension like
// LoadFile: ".hare" (and ".hare.gz") paths save the binary snapshot
// format, anything else an edge list, gzip-compressed when the path ends
// in ".gz". The file's Close error is propagated — on many filesystems a
// full disk or a flush failure only surfaces there, and swallowing it
// would report a truncated file as saved.
func SaveFile(path string, g *Graph) error {
	if strings.HasSuffix(path, ".hare") {
		return SaveSnapshot(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := WriteEdgeList
	if strings.HasSuffix(path, ".hare.gz") {
		write = WriteSnapshot
	}
	werr := writeGraphTo(f, g, write, strings.HasSuffix(path, ".gz"))
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func writeGraphTo(f *os.File, g *Graph, write func(io.Writer, *Graph) error, gz bool) error {
	if !gz {
		return write(f, g)
	}
	zw := gzip.NewWriter(f)
	if err := write(zw, g); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

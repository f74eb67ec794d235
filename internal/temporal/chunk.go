package temporal

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"sync"
)

// defaultChunkSize is the target size of one parallel-parse work unit.
// Large enough that per-chunk overhead (goroutine handoff, a map for the
// relabel shard) amortises to nothing, small enough that a handful of
// in-flight chunks bound the pipeline's memory.
const defaultChunkSize = 1 << 20

// chunkSource produces newline-aligned chunks of an edge-list input in
// order. next is called from a single producer goroutine; recycle may be
// called from any worker once a chunk's bytes have been parsed.
type chunkSource interface {
	// next returns the next chunk (every line complete, except that the
	// final line of the input may lack its newline), nil at end of input,
	// or a read error positioned at the first line it could not deliver.
	next() ([]byte, error)
	// recycle hands a chunk's buffer back for reuse.
	recycle([]byte)
	// joinable reports that next always completes in bounded time (memory
	// or file-backed I/O, never a live pipe), so a cancelled pipeline can
	// safely wait for the producer goroutine before returning. Sources
	// whose backing store is unmapped or closed right after the parallel
	// loader returns MUST be joinable, or a still-running producer would
	// touch freed memory.
	joinable() bool
}

// memSource chunks an in-memory buffer (a read or mmapped file) by slicing
// — zero copies. Overlong lines simply produce an oversized chunk; the
// parser enforces the line-length cap.
type memSource struct {
	data []byte
	pos  int
	size int
}

func newMemSource(data []byte, size int) *memSource {
	if size <= 0 {
		size = defaultChunkSize
	}
	return &memSource{data: data, size: size}
}

func (s *memSource) next() ([]byte, error) {
	if s.pos >= len(s.data) {
		return nil, nil
	}
	end := s.pos + s.size
	if end >= len(s.data) {
		end = len(s.data)
	} else if nl := bytes.IndexByte(s.data[end:], '\n'); nl >= 0 {
		end += nl + 1
	} else {
		end = len(s.data)
	}
	c := s.data[s.pos:end]
	s.pos = end
	return c, nil
}

func (s *memSource) recycle([]byte) {}

func (s *memSource) joinable() bool { return true }

// streamSource chunks an io.Reader with read-ahead buffers recycled through
// a free list — the path for gzip inputs (the producer goroutine
// decompresses while workers parse, pipelining the two) and arbitrary
// readers. The partial line after the last newline of each read is carried
// into the next chunk.
type streamSource struct {
	r    io.Reader
	size int
	free chan []byte
	tail []byte // carried partial line (owned, never aliases an emitted chunk)
	err  error  // deferred read error, surfaced after the chunks before it
	done bool

	// fileBacked marks readers whose Read always completes promptly (a
	// regular file, or gzip over one) as opposed to live pipes that may
	// block forever. Only file-backed producers are joined on early stop —
	// which LoadFile needs, since it closes the reader right after.
	fileBacked bool
}

func newStreamSource(r io.Reader, size, workers int) *streamSource {
	if size <= 0 {
		size = defaultChunkSize
	}
	return &streamSource{r: r, size: size, free: make(chan []byte, 3*workers+2)}
}

func (s *streamSource) joinable() bool { return s.fileBacked }

func (s *streamSource) getBuf() []byte {
	select {
	case b := <-s.free:
		return b[:0]
	default:
		return make([]byte, 0, s.size+bytes.MinRead)
	}
}

func (s *streamSource) recycle(b []byte) {
	select {
	case s.free <- b:
	default:
	}
}

func (s *streamSource) next() ([]byte, error) {
	if s.done {
		err := s.err
		s.err = nil
		return nil, err
	}
	buf := s.getBuf()
	buf = append(buf, s.tail...)
	s.tail = s.tail[:0]
	target := s.size
	for {
		for len(buf) < target {
			buf = slices.Grow(buf, target-len(buf))
			n, err := s.r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				s.done = true
				if len(buf) == 0 {
					s.recycle(buf)
					return nil, nil
				}
				return buf, nil
			}
			if err != nil {
				// A read error behaves like EOF followed by the error:
				// everything buffered — including a partial final line —
				// is delivered for parsing, and the error surfaces on the
				// next call. bufio.Scanner does the same (a recorded read
				// error makes it treat the buffer as final input), so line
				// numbering and partial-line parse errors match exactly.
				s.done, s.err = true, err
				if len(buf) == 0 {
					s.recycle(buf)
					s.err = nil
					return nil, err
				}
				return buf, nil
			}
		}
		if last := bytes.LastIndexByte(buf, '\n'); last >= 0 {
			s.tail = append(s.tail[:0], buf[last+1:]...)
			return buf[:last+1], nil
		}
		if len(buf) >= maxLineLen {
			// An unterminated line at least as long as the line cap
			// (bufio.Scanner's, see maxLineLen): fail like the scanner
			// does, without buffering the rest of the line.
			s.done = true
			return nil, bufio.ErrTooLong
		}
		target = len(buf) + s.size
	}
}

// ParsedChunk is one parallel-parsed piece of an edge-list input, delivered
// in input order by ForEachParsedChunk. Rows are raw parsed lines in input
// order — no range checks, relabeling, or self-loop policy applied; row i
// came from absolute input line LineBase + Line[i].
type ParsedChunk struct {
	U, V []int64     // raw endpoint ids, one entry per parsed row
	T    []Timestamp // timestamps, parallel to U/V
	Line []int32     // 1-based line number within the chunk, per row

	LineBase int // input lines preceding this chunk
	Lines    int // lines scanned in this chunk

	Err     error // first failing line's error; the chunk's rows stop before it
	ErrLine int   // 1-based line within the chunk of Err
	ErrRead bool  // Err is a read-level failure (e.g. an overlong line)
}

// ForEachParsedChunk parses "u v t" lines from r with `workers` goroutines
// (the batch loader's chunk pipeline and byte-level parser) and delivers
// the parsed chunks to yield in input order on the calling goroutine; yield
// returning false cancels the rest. The returned error is a read error
// positioned after every delivered chunk, reported raw — the stream
// counter's Feed, the main consumer, surfaces read errors unwrapped just
// like its sequential scanner path does.
func ForEachParsedChunk(r io.Reader, comma bool, workers int, yield func(ParsedChunk) bool) error {
	if workers < 1 {
		workers = 1
	}
	base := 0
	return forEachChunk(newStreamSource(r, defaultChunkSize, workers), comma, workers, nil,
		func(c *rawChunk) bool {
			ok := yield(ParsedChunk{
				U: c.u, V: c.v, T: c.t, Line: c.line,
				LineBase: base, Lines: c.lines,
				Err: c.err, ErrLine: c.errLine, ErrRead: c.errRead,
			})
			base += c.lines
			return ok
		})
}

// forEachChunk reads newline-aligned chunks from src, parses them with
// `workers` goroutines (running post, when non-nil, on each parsed chunk in
// the worker before handoff), and delivers the results to yield in input
// order on the calling goroutine. yield returning false cancels the
// remaining work. The returned error is a source read error, positioned
// after the lines of every chunk yielded before it; it is suppressed when
// yield stopped the pipeline first (a bufio.Scanner loop, too, never sees a
// read error past the point where it stops consuming lines).
func forEachChunk(src chunkSource, comma bool, workers int, post func(*rawChunk), yield func(*rawChunk) bool) error {
	type job struct {
		idx  int
		data []byte
	}
	jobs := make(chan job, workers)
	results := make(chan *rawChunk, workers)
	done := make(chan struct{})

	var srcN int // chunks produced before the source ended or failed
	var srcErr error
	prodDone := make(chan struct{})
	go func() {
		defer close(jobs)
		defer close(prodDone)
		for idx := 0; ; idx++ {
			// Check for cancellation before touching the source: once the
			// consumer stops, at most the one read already in flight runs
			// to completion, so a stopped pipeline does not keep draining
			// the caller's reader. (Like a bufio.Scanner's buffer,
			// read-ahead may still have consumed input past the stop line.)
			select {
			case <-done:
				srcN = idx
				return
			default:
			}
			data, err := src.next()
			if err != nil || data == nil {
				srcN, srcErr = idx, err
				return
			}
			select {
			case jobs <- job{idx, data}:
			case <-done:
				srcN = idx
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Select on done in BOTH directions: a worker waiting for
				// jobs must exit on cancellation even while the producer is
				// parked in a blocking Read (a live pipe) and will never
				// close the jobs channel.
				var j job
				var ok bool
				select {
				case j, ok = <-jobs:
					if !ok {
						return
					}
				case <-done:
					return
				}
				c := &rawChunk{idx: j.idx}
				c.grow(bytes.Count(j.data, []byte{'\n'}) + 1)
				parseChunk(c, j.data, comma)
				src.recycle(j.data)
				if post != nil {
					post(c)
				}
				select {
				case results <- c:
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]*rawChunk)
	nextIdx := 0
	for c := range results {
		pending[c.idx] = c
		for {
			r, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			nextIdx++
			if !yield(r) {
				// Cancel, then join the workers — their remaining work is
				// bounded (they select on done at every channel edge), and
				// the caller may unmap the bytes they parse the moment we
				// return. Join the producer only for joinable sources:
				// memory- and file-backed producers finish promptly and
				// must be joined for the same lifetime reason, while a
				// producer parked in a live pipe's Read can block forever
				// and is left to exit on its own (its source outlives us).
				close(done)
				wg.Wait()
				if src.joinable() {
					<-prodDone
				}
				return nil
			}
		}
	}
	<-prodDone
	if srcErr != nil && nextIdx == srcN {
		return srcErr
	}
	return nil
}

package temporal

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// chattyReader returns data in deterministic, irregular small reads, to
// stress chunk boundary handling in the stream source.
type chattyReader struct {
	data []byte
	pos  int
	rng  *rand.Rand
}

func (r *chattyReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(min(len(p), 700))
	n = min(n, len(r.data)-r.pos)
	copy(p, r.data[r.pos:r.pos+n])
	r.pos += n
	return n, nil
}

// failingReader yields data then fails with err.
type failingReader struct {
	data []byte
	pos  int
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// checkLoaderEquivalence runs the sequential reference loader and the chunk
// pipeline at every worker count over the same input and requires
// bit-identical outcomes: equal graphs on success, equal error strings on
// failure.
func checkLoaderEquivalence(t *testing.T, ctx, input string, opts LoadOptions) {
	t.Helper()
	want, wantErr := readEdgeListSeq(strings.NewReader(input), opts)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, chunkSize := range []int{37, 512, defaultChunkSize} {
			mem, memErr := readEdgeListParallel(
				newMemSource([]byte(input), chunkSize), opts, workers)
			compareLoads(t, fmt.Sprintf("%s mem workers=%d chunk=%d", ctx, workers, chunkSize),
				want, wantErr, mem, memErr)
			rng := rand.New(rand.NewSource(int64(workers*1000 + chunkSize)))
			st, stErr := readEdgeListParallel(
				newStreamSource(&chattyReader{data: []byte(input), rng: rng}, chunkSize, workers),
				opts, workers)
			compareLoads(t, fmt.Sprintf("%s stream workers=%d chunk=%d", ctx, workers, chunkSize),
				want, wantErr, st, stErr)
		}
	}
}

func compareLoads(t *testing.T, ctx string, want *Graph, wantErr error, got *Graph, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: sequential=%v parallel=%v", ctx, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch:\n sequential: %v\n parallel:   %v", ctx, wantErr, gotErr)
		}
		return
	}
	graphsEqual(t, ctx, want, got)
}

// randomEdgeListInput generates an edge-list text exercising the grammar:
// comments, blanks, uneven whitespace, self-loops, sparse ids (relabel
// mode), extra fields, and (optionally) malformed lines.
func randomEdgeListInput(rng *rand.Rand, lines int, comma, sparseIDs, withBad bool) string {
	var sb strings.Builder
	sep := " "
	if comma {
		sep = ","
	}
	id := func() int64 {
		if sparseIDs {
			return rng.Int63n(1 << 40)
		}
		return rng.Int63n(50)
	}
	for i := 0; i < lines; i++ {
		switch r := rng.Intn(100); {
		case r < 6:
			sb.WriteString("# comment\n")
		case r < 10:
			sb.WriteString("\n")
		case r < 12:
			sb.WriteString("   % also a comment\n")
		case withBad && r < 14:
			sb.WriteString("bogus line\n")
		case withBad && r < 15:
			fmt.Fprintf(&sb, "%d %d\n", id(), id()) // too few fields
		case withBad && r < 16:
			fmt.Fprintf(&sb, "%d%s%d%snot-a-time\n", id(), sep, id(), sep)
		default:
			u := id()
			v := id()
			if rng.Intn(12) == 0 {
				v = u // self-loop
			}
			fmt.Fprintf(&sb, "%d%s%d%s%d", u, sep, v, sep, rng.Intn(100))
			if rng.Intn(10) == 0 {
				fmt.Fprintf(&sb, "%s%d", sep, rng.Intn(9)) // trailing field
			}
			if rng.Intn(15) == 0 {
				sb.WriteString("  ")
			}
			sb.WriteString("\n")
		}
	}
	s := sb.String()
	if rng.Intn(3) == 0 { // sometimes no trailing newline
		s = strings.TrimSuffix(s, "\n")
	}
	return s
}

func TestParallelLoaderEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		comma := trial%2 == 1
		sparse := trial%3 == 0
		withBad := trial%4 >= 2
		lines := 1 + rng.Intn(400)
		input := randomEdgeListInput(rng, lines, comma, sparse, withBad)
		opts := LoadOptions{Comma: comma, Relabel: sparse || trial%5 == 0}
		switch trial % 5 {
		case 2:
			opts.MaxEdges = 1 + rng.Intn(10)
		case 3:
			opts.MaxEdges = 1 + rng.Intn(lines+1)
		}
		ctx := fmt.Sprintf("trial=%d comma=%v relabel=%v max=%d bad=%v",
			trial, comma, opts.Relabel, opts.MaxEdges, withBad)
		checkLoaderEquivalence(t, ctx, input, opts)
	}
}

func TestParallelLoaderEquivalenceCorpus(t *testing.T) {
	// Inputs built around the fuzz seed corpus lines: each corpus line is
	// embedded between valid edges so chunk boundaries can land anywhere
	// around the tricky grammar cases.
	lines := fuzzCorpusLines(t)
	var sb strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&sb, "%d %d %d\n", i, i+1, i)
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	input := sb.String()
	for _, opts := range []LoadOptions{
		{},
		{Relabel: true},
		{Comma: true},
		{Comma: true, Relabel: true},
		{Relabel: true, MaxEdges: 3},
	} {
		ctx := fmt.Sprintf("corpus comma=%v relabel=%v max=%d", opts.Comma, opts.Relabel, opts.MaxEdges)
		checkLoaderEquivalence(t, ctx, input, opts)
	}
}

func TestParallelLoaderEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		input string
		opts  LoadOptions
	}{
		{"empty", "", LoadOptions{}},
		{"only-comments", "# a\n% b\n\n\n", LoadOptions{}},
		{"no-trailing-newline", "0 1 5", LoadOptions{}},
		{"single-selfloop", "7 7 1\n", LoadOptions{}},
		{"selfloop-relabel", "7 7 1\n8 9 2\n", LoadOptions{Relabel: true}},
		{"max-stops-before-bad", "0 1 1\nbogus\n", LoadOptions{MaxEdges: 1}},
		{"max-stops-before-selfloop", "0 1 1\n5 5 9\n", LoadOptions{MaxEdges: 1}},
		{"bad-before-max", "bogus\n0 1 1\n", LoadOptions{MaxEdges: 1}},
		{"range-error", "0 1 1\n2147483648 1 2\n", LoadOptions{}},
		{"negative-id", "0 1 1\n-2 1 2\n", LoadOptions{}},
		{"range-ok-relabel", "2147483648 1 2\n-2 1 3\n", LoadOptions{Relabel: true}},
		{"max-larger-than-input", "0 1 1\n1 2 2\n", LoadOptions{MaxEdges: 99}},
		{"max-exact-boundary", "0 1 1\n1 2 2\n5 5 3\nbogus\n", LoadOptions{MaxEdges: 2}},
		{"unicode-spaces", "1 2 3\n # c\n4 5 6\n", LoadOptions{}},
		{"dup-relabel", "9 9 1\n3 9 2\n9 3 3\n3 9 4\n", LoadOptions{Relabel: true}},
	}
	for _, tc := range cases {
		checkLoaderEquivalence(t, tc.name, tc.input, tc.opts)
	}
}

func TestParallelLoaderReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	data := []byte("0 1 1\n1 2 2\n2 3 3\n4 5")
	want, wantErr := readEdgeListSeq(&failingReader{data: data, err: boom}, LoadOptions{})
	for _, workers := range []int{1, 2, 5} {
		got, gotErr := readEdgeListParallel(
			newStreamSource(&failingReader{data: data, err: boom}, 37, workers),
			LoadOptions{}, workers)
		compareLoads(t, fmt.Sprintf("readerr workers=%d", workers), want, wantErr, got, gotErr)
	}
	if wantErr == nil || !strings.Contains(wantErr.Error(), "line 4") {
		t.Fatalf("sequential read error should name line 4, got %v", wantErr)
	}
	// A read error past the MaxEdges stop line is never observed, exactly
	// like the sequential loader which stops scanning.
	for _, workers := range []int{1, 2, 5} {
		g, err := readEdgeListParallel(
			newStreamSource(&failingReader{data: data, err: boom}, 8, workers),
			LoadOptions{MaxEdges: 2}, workers)
		if err != nil || g.NumEdges() != 2 {
			t.Fatalf("workers=%d: want clean 2-edge graph before read error, got g=%v err=%v", workers, g, err)
		}
	}
}

// blockingReader serves its data and then blocks like a quiet live pipe
// until the test finishes.
type blockingReader struct {
	data    []byte
	pos     int
	release chan struct{}
}

func (r *blockingReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		<-r.release
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// TestParallelLoaderStopsOnBlockedReader: when a parse error (or MaxEdges)
// stops the pipeline, ReadEdgeList must return even though the producer is
// parked in a blocking Read that will never deliver another byte — the
// live-pipe shape. Regression test for a shutdown deadlock where idle
// workers waited on the jobs channel that only a finished producer closes.
func TestParallelLoaderStopsOnBlockedReader(t *testing.T) {
	for name, opts := range map[string]LoadOptions{
		"parse-error": {Workers: 4},
		"max-edges":   {Workers: 4, MaxEdges: 2},
	} {
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		r := &blockingReader{data: []byte("0 1 1\nbogus\n2 3 3\n"), release: release}
		if name == "max-edges" {
			r.data = []byte("0 1 1\n1 2 2\n2 3 3\n")
		}
		type result struct {
			g   *Graph
			err error
		}
		ch := make(chan result, 1)
		go func() {
			g, err := readEdgeListParallel(newStreamSource(r, 8, 4), opts, 4)
			ch <- result{g, err}
		}()
		select {
		case res := <-ch:
			if name == "parse-error" {
				if res.err == nil || !strings.Contains(res.err.Error(), "line 2") {
					t.Fatalf("%s: err = %v, want line-2 parse error", name, res.err)
				}
			} else if res.err != nil || res.g.NumEdges() != 2 {
				t.Fatalf("%s: g=%v err=%v, want clean 2-edge graph", name, res.g, res.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: parallel loader deadlocked on a blocked reader", name)
		}
	}
}

func TestReadEdgeListParallelPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	input := randomEdgeListInput(rng, 3000, false, false, false)
	want, err := readEdgeListSeq(strings.NewReader(input), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(strings.NewReader(input), LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "public", want, got)
}

func TestLoadFileParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	input := randomEdgeListInput(rng, 2500, false, true, false)
	want, err := readEdgeListSeq(strings.NewReader(input), LoadOptions{Relabel: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	plain := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(plain, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write([]byte(input)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "edges.txt.gz")
	if err := os.WriteFile(gz, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{plain, gz} {
		for _, workers := range []int{1, 2, 6} {
			got, err := LoadFile(path, LoadOptions{Relabel: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", path, workers, err)
			}
			graphsEqual(t, fmt.Sprintf("%s workers=%d", filepath.Base(path), workers), want, got)
		}
	}
}

// TestLoadFileParallelEarlyStop exercises early pipeline stops (parse
// error, MaxEdges) on multi-chunk mmapped and gzip files: LoadFile unmaps
// and closes right after returning, so the pipeline must have joined every
// goroutine still touching the mapping or the reader (regression test for
// a use-after-unmap; meaningful under -race and on multi-core hosts).
func TestLoadFileParallelEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sb strings.Builder
	for i := 0; sb.Len() < 2500*1024; i++ {
		if i == 60_000 {
			sb.WriteString("bogus line\n")
		}
		fmt.Fprintf(&sb, "%d %d %d\n", rng.Intn(500), rng.Intn(500), i)
	}
	input := sb.String()
	dir := t.TempDir()
	plain := filepath.Join(dir, "big.txt")
	if err := os.WriteFile(plain, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "big.txt.gz")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write([]byte(input)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gz, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, gz} {
		// Parse error mid-file: the pipeline stops with later chunks still
		// in flight.
		_, err := LoadFile(path, LoadOptions{Workers: 6})
		if err == nil || !strings.Contains(err.Error(), "line 60001") {
			t.Fatalf("%s: err = %v, want parse error on line 60001", filepath.Base(path), err)
		}
		// MaxEdges stop in the first chunk with the rest unread.
		g, err := LoadFile(path, LoadOptions{Workers: 6, MaxEdges: 100})
		if err != nil || g.NumEdges() != 100 {
			t.Fatalf("%s: g=%v err=%v, want clean 100-edge graph", filepath.Base(path), g, err)
		}
	}
}

func TestMmapEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path, LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.NumNodes() != 0 {
		t.Fatalf("edges=%d nodes=%d, want empty", g.NumEdges(), g.NumNodes())
	}
}

package temporal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzParseEdgeLine exercises the shared edge-line grammar used by both the
// batch loader and the stream feeder. Invariants:
//
//   - never panics, for any input and either separator mode;
//   - skip is reported exactly for blank and '#'/'%' comment lines;
//   - a successfully parsed line round-trips: re-serialising (u, v, t) in
//     the canonical "u v t" form parses back to the same values;
//   - error and skip are mutually exclusive with a parsed edge.
func FuzzParseEdgeLine(f *testing.F) {
	seeds := []struct {
		line  string
		comma bool
	}{
		{"1 2 3", false},
		{"0 0 0", false},
		{" 10\t20  30 ", false},
		{"# comment", false},
		{"% matrix-market comment", false},
		{"", false},
		{"1,2,3", true},
		{"1,2,3,extra", true},
		{"4 5 6 7 8", false},
		{"-1 -2 -3", false},
		{"9223372036854775807 1 9223372036854775807", false},
		{"9223372036854775808 1 2", false}, // int64 overflow
		{"a b c", false},
		{"1 2", false},
		{"\x00\x01\x02", false},
		{"7\u00a08\u00a09", false}, // unicode spaces separate fields too
	}
	for _, s := range seeds {
		f.Add(s.line, s.comma)
	}
	f.Fuzz(func(t *testing.T, line string, comma bool) {
		e, skip, err := ParseEdgeLine(line, comma)
		trimmed := strings.TrimSpace(line)
		wantSkip := trimmed == "" || trimmed[0] == '#' || trimmed[0] == '%'
		if skip != wantSkip {
			t.Fatalf("skip = %v for %q, want %v", skip, line, wantSkip)
		}
		if skip || err != nil {
			if e != (EdgeLine{}) {
				t.Fatalf("non-zero edge %+v alongside skip=%v err=%v", e, skip, err)
			}
			return
		}
		canon := fmt.Sprintf("%d %d %d", e.U, e.V, e.T)
		e2, skip2, err2 := ParseEdgeLine(canon, comma)
		if skip2 || err2 != nil {
			t.Fatalf("canonical form %q failed: skip=%v err=%v", canon, skip2, err2)
		}
		if e2 != e {
			t.Fatalf("round trip changed %q: %+v -> %+v", line, e, e2)
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to the .hare snapshot decoder.
// Invariants (the tentpole's correctness bar — a snapshot load must never
// crash or silently mis-load, whatever is on disk):
//
//   - never panics, on either the copying or the borrowing decode path;
//   - failure is always one of the typed sentinel errors (or a
//     *SnapshotVersionError), so callers can classify it;
//   - the borrow and copy paths agree on accept/reject;
//   - an accepted input is exactly canonical: re-encoding the decoded
//     Graph with WriteSnapshot reproduces the input bytes bit for bit.
func FuzzSnapshot(f *testing.F) {
	for name, g := range snapshotTestGraphs(f) {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		data := buf.Bytes()
		f.Add(append([]byte(nil), data...))
		// Damaged variants seed the interesting error paths directly.
		f.Add(data[:len(data)-1])                            // truncated payload
		f.Add(append([]byte(nil), data...)[:snapHeaderSize]) // header only
		flip := append([]byte(nil), data...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip) // checksum mismatch
		ver := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(ver[8:], SnapshotVersion+1)
		f.Add(ver) // future version
	}
	f.Add([]byte{})
	f.Add([]byte(SnapshotMagic))
	f.Add([]byte("1 2 3\n4 5 6\n")) // an edge list is not a snapshot

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeSnapshot(data, false, nil)
		if err != nil {
			var ve *SnapshotVersionError
			if !errors.Is(err, ErrSnapshotMagic) && !errors.Is(err, ErrSnapshotTruncated) &&
				!errors.Is(err, ErrSnapshotChecksum) && !errors.Is(err, ErrSnapshotMalformed) &&
				!errors.As(err, &ve) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
		if canBorrowSnapshot() {
			bg, berr := decodeSnapshot(data, true, nil)
			if (err == nil) != (berr == nil) {
				t.Fatalf("borrow/copy disagree: copy err=%v, borrow err=%v", err, berr)
			}
			if berr == nil {
				var a, b bytes.Buffer
				if e1, e2 := WriteSnapshot(&a, g), WriteSnapshot(&b, bg); e1 != nil || e2 != nil {
					t.Fatalf("re-encode: %v / %v", e1, e2)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatal("borrow and copy decoded different graphs")
				}
			}
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, g); err != nil {
			t.Fatalf("re-encode accepted input: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes out", len(data), out.Len())
		}
	})
}

// fuzzExtendInput decodes fuzz bytes into an edge feed and the batch
// boundaries to replay it at. Four bytes make an edge: node IDs in
// [-1, 30] (so negative IDs, self-loops and multi-edges all occur), a time
// step in [-2, 5] (so feeds are mostly ordered, with ties and the odd step
// back), and a flag whose low two bits, when clear, end a batch.
func fuzzExtendInput(data []byte) (edges []Edge, cuts []int) {
	var now Timestamp
	for ; len(data) >= 4; data = data[4:] {
		now += Timestamp(data[2]%8) - 2
		edges = append(edges, Edge{From: NodeID(data[0]%32) - 1, To: NodeID(data[1]%32) - 1, Time: now})
		if data[3]%4 == 0 {
			cuts = append(cuts, len(edges))
		}
	}
	return edges, append(cuts, len(edges))
}

// FuzzExtend replays an arbitrary feed through Extend at arbitrary batch
// boundaries. Whichever of the merge and the rebuild each step takes, the
// graph after it must validate and equal FromEdges of the feed so far. The
// seeds are testdata/fuzz/FuzzExtend.
func FuzzExtend(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, cuts := fuzzExtendInput(data)
		var g *Graph
		lo := 0
		for _, hi := range cuts {
			g = Extend(g, edges[lo:hi])
			if err := g.Validate(); err != nil {
				t.Fatalf("after %d of %d edges: %v", hi, len(edges), err)
			}
			graphsEqual(t, fmt.Sprintf("after %d of %d edges", hi, len(edges)), g, FromEdges(edges[:hi]))
			lo = hi
		}
	})
}

// FuzzBuildUnsorted decodes bytes into edges with arbitrary int64 times:
// after a header byte s, each 10 bytes are a source and a target over 16
// nodes and a time, shifted right by s%64 so that spans of every width and
// dense ties both occur. FromEdges, which radix-sorts unsorted input, must
// validate and equal, column for column, the build of the same edges stably
// pre-sorted by time, which takes the chronological path and no sort.
func FuzzBuildUnsorted(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64([]byte{0, 1, 2}, math.MaxUint64))
	extremes := []byte{0}
	for i, t := range []uint64{math.MaxInt64, 1 << 63, 0, math.MaxInt64, 1 << 63, 5} {
		extremes = binary.LittleEndian.AppendUint64(append(extremes, byte(i), byte(i+1)), t)
	}
	f.Add(extremes)
	f.Add(append([]byte{60}, extremes[1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := data[0] % 64
		var edges []Edge
		for data = data[1:]; len(data) >= 10; data = data[10:] {
			edges = append(edges, Edge{From: NodeID(data[0] % 16), To: NodeID(data[1] % 16),
				Time: Timestamp(binary.LittleEndian.Uint64(data[2:])) >> shift})
		}
		g := FromEdges(edges)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		sorted := slices.Clone(edges)
		slices.SortStableFunc(sorted, byTime)
		graphsEqual(t, "unsorted against pre-sorted", g, FromEdges(sorted))
	})
}

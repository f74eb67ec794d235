package temporal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// snapshotTestGraphs returns named graphs spanning the shapes the format
// must round-trip: empty, trivial, multi-edges with timestamp ties,
// self-loops dropped, isolated trailing nodes, and a randomized hub-skewed
// graph.
func snapshotTestGraphs(t testing.TB) map[string]*Graph {
	t.Helper()
	graphs := map[string]*Graph{
		"empty":  FromEdges(nil),
		"single": FromEdges([]Edge{{0, 1, 5}}),
		"ties-multi": FromEdges([]Edge{
			{0, 1, 10}, {1, 0, 10}, {0, 1, 10}, {2, 0, 7}, {1, 2, 12}, {0, 1, 12},
		}),
		"selfloops": FromEdges([]Edge{
			{0, 0, 1}, {0, 1, 2}, {3, 3, 3}, {1, 2, 4}, {2, 2, 5},
		}),
	}
	// Isolated high node: numNodes > max active node + 1 is impossible via
	// FromEdges, but trailing isolated nodes (referenced only as endpoints
	// of dropped self-loops are NOT kept) — build one via a far endpoint.
	graphs["sparse-ids"] = FromEdges([]Edge{{0, 99, 1}, {99, 50, 2}})
	rng := rand.New(rand.NewSource(42))
	edges := make([]Edge, 5000)
	for i := range edges {
		u := NodeID(rng.Intn(40)) // hub-skewed: small node space, many multi-edges
		v := NodeID(rng.Intn(400))
		edges[i] = Edge{From: u, To: v, Time: Timestamp(rng.Intn(1000))}
	}
	graphs["random"] = FromEdges(edges)
	return graphs
}

// TestSnapshotRoundTrip proves a snapshot-loaded graph is bit-identical to
// the original on every internal column, through all three load paths:
// portable reader, copying decode, and the borrowing (mmap-shaped) decode.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, g := range snapshotTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, g); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			data := buf.Bytes()

			rd, err := ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			graphsEqual(t, "read", g, rd)

			cp, err := decodeSnapshot(data, false, nil)
			if err != nil {
				t.Fatalf("decodeSnapshot(copy): %v", err)
			}
			graphsEqual(t, "copy-decode", g, cp)

			if canBorrowSnapshot() {
				bw, err := decodeSnapshot(data, true, nil)
				if err != nil {
					t.Fatalf("decodeSnapshot(borrow): %v", err)
				}
				graphsEqual(t, "borrow-decode", g, bw)
			}
		})
	}
}

// TestSnapshotDeterministic pins that serialisation is byte-deterministic.
func TestSnapshotDeterministic(t *testing.T) {
	g := snapshotTestGraphs(t)["random"]
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two serialisations of the same graph differ")
	}
}

// The v1 bytes are frozen: testdata/v1.hare was written by the format's
// first writer from these edges, and today's writer must reproduce it byte
// for byte, and today's reader decode it to the same graph. A writer and a
// reader that agreed on a new section order would pass every round trip.
func TestSnapshotGoldenBytes(t *testing.T) {
	g := FromEdges([]Edge{
		{From: 0, To: 1, Time: 10}, {From: 1, To: 2, Time: 10}, {From: 2, To: 0, Time: 12}, {From: 0, To: 2, Time: 15},
		{From: 3, To: 1, Time: 20}, {From: 1, To: 3, Time: 20}, {From: 2, To: 2, Time: 21}, {From: 4, To: 0, Time: 25},
	})
	golden, err := os.ReadFile(filepath.Join("testdata", "v1.hare"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("WriteSnapshot no longer writes the v1 bytes")
	}
	got, err := ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "golden", g, got)
}

// TestSnapshotFileRoundTrip exercises the real file paths: SaveSnapshot,
// then LoadSnapshot (mmap-backed where available) — and the graph must
// stay valid and identical, including after the source file handle is gone.
func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, g := range snapshotTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".hare")
			if err := SaveSnapshot(path, g); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}
			got, err := LoadSnapshot(path)
			if err != nil {
				t.Fatalf("LoadSnapshot: %v", err)
			}
			graphsEqual(t, "file", g, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("loaded graph invalid: %v", err)
			}
		})
	}
}

// TestSnapshotViaLoadSaveFile verifies the extension dispatch in
// SaveFile/LoadFile, including the gzipped portable path.
func TestSnapshotViaLoadSaveFile(t *testing.T) {
	g := snapshotTestGraphs(t)["ties-multi"]
	dir := t.TempDir()
	for _, ext := range []string{".hare", ".hare.gz"} {
		path := filepath.Join(dir, "g"+ext)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", ext, err)
		}
		got, err := LoadFile(path, LoadOptions{})
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", ext, err)
		}
		graphsEqual(t, "file", g, got)
	}
}

// TestSnapshotTextEquivalence is the headline round-trip guarantee: a graph
// loaded from a snapshot is bit-identical to the graph parsed from the
// equivalent edge-list text, column for column.
func TestSnapshotTextEquivalence(t *testing.T) {
	g := snapshotTestGraphs(t)["random"]
	var text bytes.Buffer
	if err := WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadEdgeList(bytes.NewReader(text.Bytes()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, fromText); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "text-vs-snapshot", fromText, fromSnap)
}

// patch returns a copy of data with the bytes at off replaced.
func patch(data []byte, off int, repl ...byte) []byte {
	out := append([]byte(nil), data...)
	copy(out[off:], repl)
	return out
}

// fixHeaderCRC recomputes the header CRC after a deliberate header/table
// patch, so tests can reach the checks behind it.
func fixHeaderCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	crc := crc32.Update(0, snapCRCTable, out[:snapCRCOff])
	crc = crc32.Update(crc, snapCRCTable, out[snapHeaderSize:snapPayloadOff])
	binary.LittleEndian.PutUint32(out[snapCRCOff:], crc)
	return out
}

// TestSnapshotCorruption is the table-driven corruption suite: truncation
// at every section boundary, bit flips in every region, wrong magic, and
// version skew must each yield the right typed error — never a panic, and
// never a silently loaded graph.
func TestSnapshotCorruption(t *testing.T) {
	g := snapshotTestGraphs(t)["ties-multi"]
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	n, m, k := g.numNodes, len(g.ts), len(g.nbrKey)
	specs := snapSpecs(n, m, k)

	type tc struct {
		name string
		data []byte
		want error
	}
	cases := []tc{
		{"empty", nil, ErrSnapshotTruncated},
		{"magic-prefix-only", valid[:4], ErrSnapshotTruncated},
		{"wrong-magic", patch(valid, 0, 'X'), ErrSnapshotMagic},
		{"text-file", []byte("1 2 3\n4 5 6\n"), ErrSnapshotMagic},
		{"header-only", valid[:snapHeaderSize], ErrSnapshotTruncated},
		{"mid-table", valid[:snapHeaderSize+3*snapEntrySize+7], ErrSnapshotTruncated},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xAB), ErrSnapshotMalformed},
		{"flip-header-count", fixHeaderCRC(patch(valid, 16, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)), ErrSnapshotMalformed},
		{"flip-header-crc", patch(valid, snapCRCOff, valid[snapCRCOff]^1), ErrSnapshotChecksum},
		{"flip-table-offset", patch(valid, snapHeaderSize, valid[snapHeaderSize]^1), ErrSnapshotChecksum},
		{"flip-table-offset-fixed-crc", fixHeaderCRC(patch(valid, snapHeaderSize, valid[snapHeaderSize]^1)), ErrSnapshotMalformed},
		{"bad-flags", fixHeaderCRC(patch(valid, 12, 1)), ErrSnapshotMalformed},
		{"bad-section-count", fixHeaderCRC(patch(valid, 48, 14)), ErrSnapshotMalformed},
	}
	// Version skew: newer and zero versions both refuse with the typed
	// version error, before any checksum check (so a v2 file with a
	// different layout is still classified correctly).
	cases = append(cases,
		tc{"version-2", patch(valid, 8, 2, 0, 0, 0), &SnapshotVersionError{}},
		tc{"version-0", patch(valid, 8, 0, 0, 0, 0), &SnapshotVersionError{}},
	)
	// Truncation at (and just before) every section boundary.
	off := snapPayloadOff
	for i, s := range specs {
		cases = append(cases, tc{fmt.Sprintf("truncate-before-section-%d", i), valid[:off], ErrSnapshotTruncated})
		end := off + align8(s.elem*s.count)
		if end > off {
			cases = append(cases, tc{fmt.Sprintf("truncate-inside-section-%d", i), valid[:end-1], ErrSnapshotTruncated})
		}
		off = end
	}
	// A bit flip inside every non-empty section payload must be caught by
	// that section's CRC.
	off = snapPayloadOff
	for i, s := range specs {
		if l := s.elem * s.count; l > 0 {
			cases = append(cases, tc{fmt.Sprintf("flip-section-%d", i), patch(valid, off+l/2, valid[off+l/2]^0x10), ErrSnapshotChecksum})
		}
		off += align8(s.elem * s.count)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, borrow := range []bool{false, true} {
				if borrow && !canBorrowSnapshot() {
					continue
				}
				g, err := decodeSnapshot(c.data, borrow, nil)
				if err == nil {
					t.Fatalf("borrow=%v: corrupted snapshot loaded successfully (%d nodes)", borrow, g.NumNodes())
				}
				if ve := (*SnapshotVersionError)(nil); errors.As(c.want, &ve) {
					if !errors.As(err, &ve) {
						t.Fatalf("borrow=%v: got %v, want a *SnapshotVersionError", borrow, err)
					}
				} else if !errors.Is(err, c.want) {
					t.Fatalf("borrow=%v: got %v, want %v", borrow, err, c.want)
				}
			}
		})
	}
}

// TestSnapshotBoolBytes rejects snapshots whose direction columns contain
// bytes other than 0/1 (which would corrupt bool semantics if aliased).
func TestSnapshotBoolBytes(t *testing.T) {
	g := snapshotTestGraphs(t)["ties-multi"]
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	specs := snapSpecs(g.numNodes, len(g.ts), len(g.nbrKey))
	off := snapPayloadOff
	for i, s := range specs {
		if s.kind == secIncOut || s.kind == secGrpOut {
			data := patch(valid, off, 2) // not a valid bool byte
			// Re-sign the section so the corruption reaches the bool check.
			crc := crc32.Checksum(data[off:off+s.elem*s.count], snapCRCTable)
			e := snapHeaderSize + i*snapEntrySize
			binary.LittleEndian.PutUint32(data[e+24:], crc)
			data = fixHeaderCRC(data)
			if _, err := decodeSnapshot(data, false, nil); !errors.Is(err, ErrSnapshotMalformed) {
				t.Errorf("section %d: got %v, want ErrSnapshotMalformed", i, err)
			}
		}
		off += align8(s.elem * s.count)
	}
}

// TestSnapshotVersionError pins the error text contract used in logs.
func TestSnapshotVersionError(t *testing.T) {
	err := &SnapshotVersionError{Version: 7}
	if got := err.Error(); got == "" || !bytes.Contains([]byte(got), []byte("version 7")) {
		t.Fatalf("unhelpful version error: %q", got)
	}
}

// TestSnapshotNilGraph covers the writer's nil guard.
func TestSnapshotNilGraph(t *testing.T) {
	if err := WriteSnapshot(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("WriteSnapshot(nil) succeeded")
	}
}

// TestSnapshotSaveToBadPath propagates file-creation errors.
func TestSnapshotSaveToBadPath(t *testing.T) {
	g := FromEdges([]Edge{{0, 1, 1}})
	if err := SaveSnapshot(filepath.Join(t.TempDir(), "no", "such", "dir", "g.hare"), g); err == nil {
		t.Fatal("SaveSnapshot into a missing directory succeeded")
	}
}

// TestLoadSnapshotMissing propagates open errors untyped (not snapshot
// corruption: the file simply is not there).
func TestLoadSnapshotMissing(t *testing.T) {
	_, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.hare"))
	if err == nil {
		t.Fatal("LoadSnapshot of a missing file succeeded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want fs not-exist", err)
	}
}

// TestSnapshotPaddingNotCanonical checks that alignment padding — which no
// CRC covers — must be zero: the format admits exactly one byte string per
// graph.
func TestSnapshotPaddingNotCanonical(t *testing.T) {
	g := FromEdges([]Edge{{From: 0, To: 1, Time: 1}}) // incOut: 2 bools + 6 pad bytes
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	specs := snapSpecs(g.NumNodes(), g.NumEdges(), len(g.nbrKey))
	off := snapPayloadOff
	patched := false
	for _, s := range specs {
		length := s.elem * s.count
		if pad := align8(length) - length; pad > 0 {
			data[off+length] = 0xcc
			patched = true
			break
		}
		off += align8(length)
	}
	if !patched {
		t.Fatal("no padded section in test graph")
	}
	if _, err := decodeSnapshot(data, false, nil); !errors.Is(err, ErrSnapshotMalformed) {
		t.Fatalf("want ErrSnapshotMalformed for nonzero padding, got %v", err)
	}
}

func benchmarkSnapshotGraph(b *testing.B) (*Graph, string) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const n, m = 20000, 200000
	bld := NewBuilder(m)
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			v = (v + 1) % n
		}
		if err := bld.AddEdge(u, v, Timestamp(rng.Intn(1<<20))); err != nil {
			b.Fatal(err)
		}
	}
	g := bld.Build()
	path := filepath.Join(b.TempDir(), "g.hare")
	if err := SaveSnapshot(path, g); err != nil {
		b.Fatal(err)
	}
	return g, path
}

func BenchmarkLoadSnapshot(b *testing.B) {
	_, path := benchmarkSnapshotGraph(b)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSnapshot(b *testing.B) {
	g, path := benchmarkSnapshotGraph(b)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSnapshot(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// resignSection rewrites 8 bytes at wordOff inside section kind with a
// little-endian value, then re-signs the section and header CRCs — crafting
// a checksum-valid file whose rejection must come from structural
// validation alone.
func resignSection(t *testing.T, valid []byte, g *Graph, kind uint32, wordOff int, value uint64) []byte {
	t.Helper()
	specs := snapSpecs(g.numNodes, len(g.ts), len(g.nbrKey))
	off := snapPayloadOff
	for i, s := range specs {
		if s.kind != kind {
			off += align8(s.elem * s.count)
			continue
		}
		data := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(data[off+wordOff:], value)
		crc := crc32.Checksum(data[off:off+s.elem*s.count], snapCRCTable)
		binary.LittleEndian.PutUint32(data[snapHeaderSize+i*snapEntrySize+24:], crc)
		return fixHeaderCRC(data)
	}
	t.Fatalf("section kind %d not found", kind)
	return nil
}

// TestSnapshotCraftedOffsetRamp rejects checksum-valid snapshots whose
// offset columns ramp past the columns they index — intermediate values
// beyond the end anchor must fail validation, not walk the span loops out
// of bounds (a crash here is a fuzz-bar violation, hence the regression
// test at the exact hole).
func TestSnapshotCraftedOffsetRamp(t *testing.T) {
	g := snapshotTestGraphs(t)["random"]
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	huge := uint64(1) << 40
	cases := []struct {
		name string
		kind uint32
		word int // which int64 of the section to overwrite
	}{
		{"incOff-mid-ramp", secIncOff, g.numNodes / 2},
		{"nbrOff-mid-ramp", secNbrOff, g.numNodes / 2},
		{"grpOff-mid-ramp", secGrpOff, len(g.nbrKey) / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := resignSection(t, valid, g, tc.kind, 8*tc.word, huge)
			for _, borrow := range []bool{false, canBorrowSnapshot()} {
				g2, err := decodeSnapshot(data, borrow, nil)
				if g2 != nil || !errors.Is(err, ErrSnapshotMalformed) {
					t.Fatalf("borrow=%v: got (%v, %v), want ErrSnapshotMalformed", borrow, g2, err)
				}
			}
		})
	}
	// The same corruption must also fail the full cross-checking Validate
	// without panicking (hareconvert -verify path) — mutated in place,
	// since package-internal tests can reach the columns directly.
	mutate := []func(g *Graph){
		func(g *Graph) { g.incOff[g.numNodes/2] = 1 << 40 },
		func(g *Graph) { g.nbrOff[g.numNodes/2] = 1 << 40 },
		func(g *Graph) { g.grpOff[len(g.nbrKey)/2] = 1 << 40 },
	}
	for i, mut := range mutate {
		evil := snapshotTestGraphs(t)["random"]
		mut(evil)
		if err := evil.Validate(); err == nil {
			t.Fatalf("mutation %d: full Validate accepted a crafted offset ramp", i)
		}
	}
}

// TestSnapshotCraftedEndpointRange rejects checksum-valid snapshots whose
// src/dst columns point outside [0, n): counting kernels index per-node
// state by endpoint, so these must die in validation.
func TestSnapshotCraftedEndpointRange(t *testing.T) {
	g := snapshotTestGraphs(t)["random"]
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Overwrite dst[0] and dst[1] (one int64 word) with two huge int32s.
	evil := uint64(0x7fffffff_7fffffff)
	data := resignSection(t, valid, g, secDst, 0, evil)
	if _, err := decodeSnapshot(data, false, nil); !errors.Is(err, ErrSnapshotMalformed) {
		t.Fatalf("got %v, want ErrSnapshotMalformed", err)
	}
	evil2 := snapshotTestGraphs(t)["random"]
	evil2.dst[0] = 1 << 30
	if verr := evil2.Validate(); verr == nil {
		t.Fatal("full Validate accepted out-of-range endpoints")
	}
}

package temporal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"unsafe"
)

// Binary graph snapshots (".hare" format v1).
//
// A snapshot persists the complete columnar CSR Graph — edge columns,
// incident index, grouped per-pair index, and the scalar stats — in a
// versioned little-endian on-disk layout, so a serve-time restart pays a
// single mmap plus checksum/consistency pass instead of a full text parse
// and CSR build. docs/FORMAT.md is the normative spec; the constants and
// layout here are that spec's implementation.
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//	header (56 bytes):
//	  [0:8)   magic "HARESNAP"
//	  [8:12)  format version (uint32) — currently 1
//	  [12:16) flags (uint32, reserved, must be 0)
//	  [16:24) numNodes n (uint64)
//	  [24:32) numEdges m (uint64)
//	  [32:40) selfLoopsDropped (uint64)
//	  [40:48) nbrKeys k = len(nbrKey) (uint64)
//	  [48:52) section count (uint32) — 15 in v1
//	  [52:56) header CRC-32C over bytes [0:52) plus the section table
//	section table (15 × 32 bytes):
//	  [0:8)   absolute payload offset (uint64, multiple of 8)
//	  [8:16)  payload length in bytes (uint64)
//	  [16:20) section kind (uint32)
//	  [20:24) element size in bytes (uint32): 1, 4 or 8
//	  [24:28) CRC-32C of the payload bytes (uint32)
//	  [28:32) reserved (uint32, must be 0)
//	payload sections in kind order, each zero-padded to 8 bytes.
//
// v1 is canonical: the 15 sections appear in kind order at tightly packed
// offsets fully determined by (n, m, k), and the file ends exactly at the
// last section's padded end. The reader enforces the canonical layout, so
// a malformed table can never alias sections or smuggle trailing data.

// SnapshotMagic is the 8-byte marker opening every .hare snapshot.
const SnapshotMagic = "HARESNAP"

// SnapshotVersion is the format version this build reads and writes.
// Readers reject newer versions with *SnapshotVersionError so callers can
// fall back (e.g. to re-parsing the source text) instead of mis-loading.
const SnapshotVersion = 1

const (
	snapHeaderSize  = 56
	snapEntrySize   = 32
	snapNumSections = 15
	snapTableSize   = snapNumSections * snapEntrySize
	snapPayloadOff  = snapHeaderSize + snapTableSize
	snapCRCOff      = 52 // header CRC field offset; the CRC covers [0:52)+table
)

// Section kinds, in canonical file order.
const (
	secSrc uint32 = iota + 1
	secDst
	secTs
	secIncOff
	secIncID
	secIncTime
	secIncOther
	secIncOut
	secNbrOff
	secNbrKey
	secGrpOff
	secGrpID
	secGrpTime
	secGrpOther
	secGrpOut
)

// snapCRCTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by writer and reader.
var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Typed snapshot error sentinels. Every load failure wraps exactly one of
// these (or is a *SnapshotVersionError), so callers can dispatch with
// errors.Is / errors.As; the fuzz target enforces that no other error —
// and no panic — can escape the loader.
var (
	// ErrSnapshotMagic reports a file that is not a .hare snapshot at all.
	ErrSnapshotMagic = errors.New("temporal: not a hare snapshot (bad magic)")
	// ErrSnapshotTruncated reports a snapshot shorter than its header and
	// section table require.
	ErrSnapshotTruncated = errors.New("temporal: truncated hare snapshot")
	// ErrSnapshotChecksum reports a header or section CRC mismatch.
	ErrSnapshotChecksum = errors.New("temporal: hare snapshot checksum mismatch")
	// ErrSnapshotMalformed reports a structurally invalid snapshot: a
	// non-canonical section table, out-of-range values, or graph columns
	// that fail the CSR consistency checks.
	ErrSnapshotMalformed = errors.New("temporal: malformed hare snapshot")
)

// SnapshotVersionError reports a snapshot whose format version this build
// does not support (typically: written by a newer build). It is returned
// before any checksum or structure checks, so a caller holding the source
// text can fall back to parsing it.
type SnapshotVersionError struct{ Version uint32 }

func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("temporal: unsupported hare snapshot version %d (this build reads version %d)",
		e.Version, SnapshotVersion)
}

// nativeLittleEndian reports whether the host stores integers little-endian,
// which (with 64-bit ints) lets the loader alias mapped file bytes directly
// as column slices instead of copying.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// canBorrowSnapshot reports whether this platform can back a Graph directly
// by snapshot bytes (zero-copy): little-endian and 64-bit int, so the
// on-disk int64 offset columns are exactly []int in memory.
func canBorrowSnapshot() bool {
	return nativeLittleEndian && strconv.IntSize == 64
}

// snapSpec describes one canonical v1 section: its kind, element width,
// and expected element count, all derivable from the header counts.
type snapSpec struct {
	kind  uint32
	elem  int
	count int
}

// snapSpecs derives the canonical v1 section specs — and therefore the
// whole file layout — from the three header counts.
func snapSpecs(n, m, k int) [snapNumSections]snapSpec {
	h := 2 * m
	return [snapNumSections]snapSpec{
		{secSrc, 4, m},
		{secDst, 4, m},
		{secTs, 8, m},
		{secIncOff, 8, n + 1},
		{secIncID, 4, h},
		{secIncTime, 8, h},
		{secIncOther, 4, h},
		{secIncOut, 1, h},
		{secNbrOff, 8, n + 1},
		{secNbrKey, 4, k},
		{secGrpOff, 8, k + 1},
		{secGrpID, 4, h},
		{secGrpTime, 8, h},
		{secGrpOther, 4, h},
		{secGrpOut, 1, h},
	}
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// snapSize returns the exact canonical file size for the given counts.
func snapSize(specs [snapNumSections]snapSpec) int {
	size := snapPayloadOff
	for _, s := range specs {
		size += align8(s.elem * s.count)
	}
	return size
}

// columnBytes returns the raw in-memory bytes of a numeric or bool column
// when the platform representation already matches the on-disk format
// (little-endian hosts), and ok=false otherwise, in which case the caller
// encodes element by element.
func columnBytes[T int32 | int64 | int | bool](col []T) (b []byte, ok bool) {
	var zero T
	if size := int(unsafe.Sizeof(zero)); size > 1 && !nativeLittleEndian {
		return nil, false
	}
	if _, isInt := any(zero).(int); isInt && strconv.IntSize != 64 {
		return nil, false // on-disk layout is int64; 32-bit ints must widen
	}
	if len(col) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*int(unsafe.Sizeof(col[0]))), true
}

// encodeColumn serialises a column little-endian into dst (exactly sized).
func encodeColumn[T int32 | int64 | int | bool](dst []byte, col []T) {
	switch c := any(col).(type) {
	case []int32:
		for i, v := range c {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	case []int64:
		for i, v := range c {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	case []int:
		for i, v := range c {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	case []bool:
		for i, v := range c {
			if v {
				dst[i] = 1
			} else {
				dst[i] = 0
			}
		}
	}
}

// columns returns pointers to g's fifteen columns in canonical section
// order, the one list WriteSnapshot and decodeSnapshot both walk. Node and
// edge IDs are []int32, times []int64 and offsets []int.
func (g *Graph) columns() [snapNumSections]any {
	return [snapNumSections]any{
		&g.src, &g.dst, &g.ts,
		&g.incOff, &g.incID, &g.incTime, &g.incOther, &g.incOut,
		&g.nbrOff, &g.nbrKey, &g.grpOff, &g.grpID, &g.grpTime, &g.grpOther, &g.grpOut,
	}
}

// sectionPayload returns the little-endian payload bytes of the column col
// points to, using scratch as the encode buffer when the in-memory bytes
// cannot be used directly.
func sectionPayload(col any, scratch []byte) []byte {
	switch c := col.(type) {
	case *[]int32:
		if b, ok := columnBytes(*c); ok {
			return b
		}
		encodeColumn(scratch[:4*len(*c)], *c)
		return scratch[:4*len(*c)]
	case *[]int64:
		if b, ok := columnBytes(*c); ok {
			return b
		}
		encodeColumn(scratch[:8*len(*c)], *c)
		return scratch[:8*len(*c)]
	case *[]int:
		// Byte-compatible with the on-disk int64 layout only on 64-bit
		// little-endian hosts; otherwise widened element-wise.
		if b, ok := columnBytes(*c); ok {
			return b
		}
		encodeColumn(scratch[:8*len(*c)], *c)
		return scratch[:8*len(*c)]
	case *[]bool:
		b, _ := columnBytes(*c) // bool is one byte everywhere
		return b
	}
	panic("unreachable")
}

// WriteSnapshot serialises g to w in the .hare v1 binary snapshot format.
// The output is deterministic: the same graph always produces the same
// bytes.
func WriteSnapshot(w io.Writer, g *Graph) error {
	if g == nil {
		return fmt.Errorf("temporal: nil graph")
	}
	n, m, k := g.numNodes, len(g.ts), len(g.nbrKey)
	specs := snapSpecs(n, m, k)

	// Scratch buffer for hosts where columns must be re-encoded; sized to
	// the largest section. Little-endian hosts never touch it.
	var scratch []byte
	if !nativeLittleEndian || strconv.IntSize != 64 {
		maxLen := 0
		for _, s := range specs {
			if l := s.elem * s.count; l > maxLen {
				maxLen = l
			}
		}
		scratch = make([]byte, maxLen)
	}

	hdr := make([]byte, snapPayloadOff)
	copy(hdr[0:8], SnapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:], SnapshotVersion)
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(m))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(g.selfLoops))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(k))
	binary.LittleEndian.PutUint32(hdr[48:], snapNumSections)

	cols := g.columns()
	off := snapPayloadOff
	for i, s := range specs {
		e := hdr[snapHeaderSize+i*snapEntrySize:]
		length := s.elem * s.count
		binary.LittleEndian.PutUint64(e[0:], uint64(off))
		binary.LittleEndian.PutUint64(e[8:], uint64(length))
		binary.LittleEndian.PutUint32(e[16:], s.kind)
		binary.LittleEndian.PutUint32(e[20:], uint32(s.elem))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(sectionPayload(cols[i], scratch), snapCRCTable))
		binary.LittleEndian.PutUint32(e[28:], 0)
		off += align8(length)
	}
	crc := crc32.Update(0, snapCRCTable, hdr[:snapCRCOff])
	crc = crc32.Update(crc, snapCRCTable, hdr[snapHeaderSize:])
	binary.LittleEndian.PutUint32(hdr[snapCRCOff:], crc)

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var pad [8]byte
	for _, col := range cols {
		payload := sectionPayload(col, scratch)
		if _, err := w.Write(payload); err != nil {
			return err
		}
		if p := align8(len(payload)) - len(payload); p > 0 {
			if _, err := w.Write(pad[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveSnapshot writes g to path in the .hare binary snapshot format. The
// file's Close error is propagated, matching SaveFile.
func SaveSnapshot(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	werr := WriteSnapshot(bw, g)
	if werr == nil {
		werr = bw.Flush()
	}
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadSnapshot reads a .hare snapshot from r into a freshly allocated Graph
// (the portable read-into-slices path, also used for gzip and other
// non-file inputs). For plain files prefer LoadSnapshot, which memory-maps.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, false, nil)
}

// LoadSnapshot opens a .hare snapshot file. On platforms that support it,
// the file is memory-mapped read-only and the returned Graph's columns
// alias the mapping directly — zero-copy, zero-parse, page-cache shared
// across processes; the mapping is released when the Graph becomes
// unreachable. Elsewhere (and on mapping failure) it falls back to reading
// the file into freshly allocated columns.
//
// A mapped Graph's column slices (Src, Times, Seq views, ...) are valid
// only while the Graph itself is reachable.
func LoadSnapshot(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, unmap, ok := mmapFile(f)
	if !ok {
		return ReadSnapshot(bufio.NewReaderSize(f, 1<<20))
	}
	if !canBorrowSnapshot() {
		defer unmap()
		return decodeSnapshot(data, false, nil)
	}
	g, err := decodeSnapshot(data, true, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return g, nil
}

// snapReader walks the canonical section layout over the raw file bytes.
// Checksums are verified separately (see decodeSnapshot), concurrently
// with this walk.
type snapReader struct {
	data []byte
	spec [snapNumSections]snapSpec
	next int // next section index handed out
	off  int // canonical offset of that section
}

// section returns the payload bytes of the next canonical section.
func (r *snapReader) section() []byte {
	s := r.spec[r.next]
	length := s.elem * s.count
	payload := r.data[r.off : r.off+length]
	r.next++
	r.off += align8(length)
	return payload
}

// borrowColumn aliases payload bytes as a column of T (little-endian,
// 64-bit hosts only; alignment is guaranteed by the canonical layout).
func borrowColumn[T int32 | int64 | int | bool](payload []byte) []T {
	var zero T
	count := len(payload) / int(unsafe.Sizeof(zero))
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&payload[0])), count)
}

// decodeColumn copies payload bytes into a freshly allocated column,
// decoding little-endian explicitly (works on any host).
func decodeColumn[T int32 | int64 | int | bool](payload []byte) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	count := len(payload) / size
	if count == 0 {
		return nil, nil
	}
	out := make([]T, count)
	switch o := any(out).(type) {
	case []int32:
		for i := range o {
			o[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	case []int64:
		for i := range o {
			o[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case []int:
		for i := range o {
			v := int64(binary.LittleEndian.Uint64(payload[8*i:]))
			if int64(int(v)) != v {
				return nil, fmt.Errorf("%w: offset value %d overflows int", ErrSnapshotMalformed, v)
			}
			o[i] = int(v)
		}
	case []bool:
		for i := range o {
			o[i] = payload[i] != 0
		}
	}
	return out, nil
}

// validBoolBytes reports whether every payload byte is 0 or 1 — required
// before aliasing file bytes as []bool (and for a well-formed file in
// general: the writer only emits 0/1). Checked eight bytes at a time: a
// word of 0/1 bytes has no bits outside the low bit of each lane.
func validBoolBytes(payload []byte) bool {
	for len(payload) >= 8 {
		if binary.LittleEndian.Uint64(payload)&^0x0101010101010101 != 0 {
			return false
		}
		payload = payload[8:]
	}
	for _, b := range payload {
		if b > 1 {
			return false
		}
	}
	return true
}

// validateSnapshotGraph enforces every structural invariant a decoded
// snapshot graph needs for crash-free downstream use, in streaming passes:
// sorted edge times, endpoint and edge IDs in range, offset columns
// anchored at both ends and monotone, per-span ID/time ordering, non-empty
// groups, and the grouped/incident partition coupling. It deliberately
// skips Graph.Validate's gather-style cross-checks (half-edge time and
// endpoint equality against the edge columns), which cost most of a cold
// start and defend only against a *crafted* file whose checksums all pass:
// CRC-32C over every section already rejects any accidental corruption,
// and nothing that passes here can make the counting kernels index out of
// bounds. `hareconvert -verify` runs the full Validate for callers that
// want the cross-checks on an untrusted file.
func validateSnapshotGraph(g *Graph) error {
	n, m := g.numNodes, len(g.ts)
	h, k := 2*m, len(g.nbrKey)
	un, um := uint32(n), uint32(m)
	// Flat streaming passes first: sorted times, then every ID column in
	// range. The unsigned compare folds the negative and the >= bound
	// checks into one branch (a negative int32 casts to a huge uint32);
	// with n == 0 it correctly rejects any element at all.
	ts := g.ts
	for i := 1; i < m; i++ {
		if ts[i] < ts[i-1] {
			return fmt.Errorf("edges out of order at id %d", i)
		}
	}
	for i, s := range g.src {
		if uint32(s) >= un || uint32(g.dst[i]) >= un {
			return fmt.Errorf("edge %d endpoints out of range", i)
		}
	}
	for _, id := range g.incID {
		if uint32(id) >= um {
			return fmt.Errorf("incident index references edge %d of %d", id, m)
		}
	}
	for _, o := range g.incOther {
		if uint32(o) >= un {
			return fmt.Errorf("incident neighbor out of range")
		}
	}
	for _, id := range g.grpID {
		if uint32(id) >= um {
			return fmt.Errorf("grouped index references edge %d of %d", id, m)
		}
	}
	for _, key := range g.nbrKey {
		if uint32(key) >= un {
			return fmt.Errorf("neighbor key out of range")
		}
	}
	// Offset columns: anchored at both ends, monotone, and bounded so the
	// span loops below cannot index past the columns (the end anchor only
	// pins the final offset, not intermediate values).
	incOff := g.incOff
	if incOff[0] != 0 || incOff[n] != h {
		return fmt.Errorf("incident offsets not anchored")
	}
	for u := 1; u <= n; u++ {
		if incOff[u] < incOff[u-1] || incOff[u] > h {
			return fmt.Errorf("incident offsets malformed at node %d", u-1)
		}
	}
	nbrOff, grpOff := g.nbrOff, g.grpOff
	if nbrOff[0] != 0 || nbrOff[n] != k || grpOff[0] != 0 || grpOff[k] != h {
		return fmt.Errorf("neighbor index offsets not anchored")
	}
	for u := 1; u <= n; u++ {
		if nbrOff[u] < nbrOff[u-1] || nbrOff[u] > k {
			return fmt.Errorf("neighbor offsets malformed at node %d", u-1)
		}
	}
	for i := 0; i < k; i++ {
		if grpOff[i] >= grpOff[i+1] {
			return fmt.Errorf("empty or decreasing group %d", i)
		}
	}
	// Per-span ordering, with all indices already proven in bounds.
	incID, incTime := g.incID, g.incTime
	for u := 0; u < n; u++ {
		lo, hi := incOff[u], incOff[u+1]
		for j := lo + 1; j < hi; j++ {
			if incID[j] <= incID[j-1] || incTime[j] < incTime[j-1] {
				return fmt.Errorf("S_%d out of order", u)
			}
		}
	}
	nbrKey, grpID, grpTime, grpOther := g.nbrKey, g.grpID, g.grpTime, g.grpOther
	for u := 0; u < n; u++ {
		lo, hi := nbrOff[u], nbrOff[u+1]
		if lo < hi && (grpOff[lo] != incOff[u] || grpOff[hi] != incOff[u+1]) {
			return fmt.Errorf("node %d groups do not cover its incident span", u)
		}
		if lo == hi && incOff[u] != incOff[u+1] {
			return fmt.Errorf("node %d has half-edges but no groups", u)
		}
		for i := lo; i < hi; i++ {
			key := nbrKey[i]
			if i > lo && key <= nbrKey[i-1] {
				return fmt.Errorf("neighbor keys of node %d out of order", u)
			}
			a, b := grpOff[i], grpOff[i+1]
			if grpOther[a] != key {
				return fmt.Errorf("E(%d,%d) contains edge to %d", u, key, grpOther[a])
			}
			for j := a + 1; j < b; j++ {
				if grpOther[j] != key {
					return fmt.Errorf("E(%d,%d) contains edge to %d", u, key, grpOther[j])
				}
				if grpID[j] <= grpID[j-1] || grpTime[j] < grpTime[j-1] {
					return fmt.Errorf("E(%d,%d) out of order", u, key)
				}
			}
		}
	}
	return nil
}

// decodeSnapshot parses and fully validates a v1 snapshot. With borrow set
// (little-endian 64-bit hosts only) the returned Graph's columns alias
// data, and unmap — the mapping's release function, may be nil — is
// attached to run when the Graph is garbage collected; otherwise every
// column is copied out and unmap is ignored.
//
// Validation is total: the canonical layout, every checksum, and the full
// CSR cross-consistency checks (Graph.Validate) all pass before a Graph is
// returned, so a corrupted or adversarial snapshot yields a typed error,
// never a crash or a silently wrong graph.
func decodeSnapshot(data []byte, borrow bool, unmap func()) (*Graph, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotTruncated, len(data))
	}
	if string(data[:8]) != SnapshotMagic {
		return nil, ErrSnapshotMagic
	}
	if len(data) < snapHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes (want at least %d)", ErrSnapshotTruncated, len(data), snapHeaderSize)
	}
	// Version gates everything else: a newer format may change any later
	// byte, so checking it first keeps *SnapshotVersionError reliable for
	// fall-back dispatch.
	if v := binary.LittleEndian.Uint32(data[8:]); v != SnapshotVersion {
		return nil, &SnapshotVersionError{Version: v}
	}
	if flags := binary.LittleEndian.Uint32(data[12:]); flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrSnapshotMalformed, flags)
	}
	n64 := binary.LittleEndian.Uint64(data[16:])
	m64 := binary.LittleEndian.Uint64(data[24:])
	loops64 := binary.LittleEndian.Uint64(data[32:])
	k64 := binary.LittleEndian.Uint64(data[40:])
	// NodeID and EdgeID are int32; k <= 2m because every grouped span is
	// non-empty. These bounds also keep every derived size within int,
	// including on 32-bit hosts.
	if n64 > math.MaxInt32 || m64 > math.MaxInt32 || k64 > 2*m64 || loops64 > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible counts (n=%d m=%d k=%d)", ErrSnapshotMalformed, n64, m64, k64)
	}
	n, m, k := int(n64), int(m64), int(k64)
	if sections := binary.LittleEndian.Uint32(data[48:]); sections != snapNumSections {
		return nil, fmt.Errorf("%w: %d sections (v1 has %d)", ErrSnapshotMalformed, sections, snapNumSections)
	}
	specs := snapSpecs(n, m, k)
	want := snapSize(specs)
	if len(data) < want {
		return nil, fmt.Errorf("%w: %d bytes (layout requires %d)", ErrSnapshotTruncated, len(data), want)
	}
	if len(data) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotMalformed, len(data)-want)
	}
	crc := crc32.Update(0, snapCRCTable, data[:snapCRCOff])
	crc = crc32.Update(crc, snapCRCTable, data[snapHeaderSize:snapPayloadOff])
	if crc != binary.LittleEndian.Uint32(data[snapCRCOff:]) {
		return nil, fmt.Errorf("%w: header", ErrSnapshotChecksum)
	}
	// The table must match the canonical layout exactly: v1 admits no
	// reordering, gaps, overlaps, or padding tricks.
	off := snapPayloadOff
	for i, s := range specs {
		e := data[snapHeaderSize+i*snapEntrySize:]
		length := s.elem * s.count
		switch {
		case binary.LittleEndian.Uint64(e[0:]) != uint64(off):
			return nil, fmt.Errorf("%w: section %d at non-canonical offset", ErrSnapshotMalformed, i)
		case binary.LittleEndian.Uint64(e[8:]) != uint64(length):
			return nil, fmt.Errorf("%w: section %d has non-canonical length", ErrSnapshotMalformed, i)
		case binary.LittleEndian.Uint32(e[16:]) != s.kind:
			return nil, fmt.Errorf("%w: section %d has kind %d (want %d)", ErrSnapshotMalformed, i, binary.LittleEndian.Uint32(e[16:]), s.kind)
		case binary.LittleEndian.Uint32(e[20:]) != uint32(s.elem):
			return nil, fmt.Errorf("%w: section %d element size", ErrSnapshotMalformed, i)
		case binary.LittleEndian.Uint32(e[28:]) != 0:
			return nil, fmt.Errorf("%w: section %d reserved field", ErrSnapshotMalformed, i)
		}
		// Alignment padding sits outside every CRC, so canonicality has to
		// be enforced directly: a writer only emits zeros there.
		for _, b := range data[off+length : off+align8(length)] {
			if b != 0 {
				return nil, fmt.Errorf("%w: section %d has nonzero padding", ErrSnapshotMalformed, i)
			}
		}
		off += align8(length)
	}

	// The per-section checksums are one linear pass over the file and the
	// CSR cross-consistency checks (Graph.Validate) another; both are
	// cold-start critical. The sections' CRCs are independent, so they
	// run concurrently with each other and with column extraction +
	// validation below, roughly halving snapshot load wall time. Checksum
	// failures take precedence over structural errors when both fire (a
	// flipped bit usually trips both), and every goroutine is joined
	// before returning so the caller may unmap data immediately on error.
	secErr := make([]error, snapNumSections)
	var wg sync.WaitGroup
	crcOff := snapPayloadOff
	for i, s := range specs {
		payload := data[crcOff : crcOff+s.elem*s.count]
		want := binary.LittleEndian.Uint32(data[snapHeaderSize+i*snapEntrySize+24:])
		wg.Add(1)
		go func(i int, kind uint32, payload []byte, want uint32) {
			defer wg.Done()
			if crc32.Checksum(payload, snapCRCTable) != want {
				secErr[i] = fmt.Errorf("%w: section %d (kind %d)", ErrSnapshotChecksum, i, kind)
			}
		}(i, s.kind, payload, want)
		crcOff += align8(s.elem * s.count)
	}

	g := &Graph{numNodes: n, selfLoops: int(loops64)}
	r := &snapReader{data: data, spec: specs, off: snapPayloadOff}
	column := func(dst any) error {
		payload := r.section()
		var err error
		// NodeID/EdgeID alias int32 and Timestamp aliases int64, so four
		// cases cover all fifteen columns.
		switch d := dst.(type) {
		case *[]int32:
			if borrow {
				*d = borrowColumn[int32](payload)
				return nil
			}
			*d, err = decodeColumn[int32](payload)
		case *[]int64:
			if borrow {
				*d = borrowColumn[int64](payload)
				return nil
			}
			*d, err = decodeColumn[int64](payload)
		case *[]int:
			if borrow {
				*d = borrowColumn[int](payload)
				return nil
			}
			*d, err = decodeColumn[int](payload)
		case *[]bool:
			// Validated synchronously, before anything (Validate included)
			// reads through the column: a Go bool must never hold a byte
			// other than 0 or 1.
			if !validBoolBytes(payload) {
				return fmt.Errorf("%w: non-boolean direction byte", ErrSnapshotMalformed)
			}
			if borrow {
				*d = borrowColumn[bool](payload)
				return nil
			}
			*d, err = decodeColumn[bool](payload)
		}
		return err
	}
	var structErr error
	for _, dst := range g.columns() {
		if structErr = column(dst); structErr != nil {
			break
		}
	}
	if structErr == nil {
		// validateSnapshotGraph never trusts what it reads — every offset
		// is bounded before it is dereferenced — so it is safe on
		// not-yet-checksummed bytes; a corrupted column merely fails it,
		// and the checksum verdict below outranks it anyway.
		if err := validateSnapshotGraph(g); err != nil {
			structErr = fmt.Errorf("%w: %v", ErrSnapshotMalformed, err)
		}
	}
	wg.Wait()
	for _, err := range secErr {
		if err != nil {
			return nil, err
		}
	}
	if structErr != nil {
		return nil, structErr
	}
	if borrow && unmap != nil {
		runtime.AddCleanup(g, func(u func()) { u() }, unmap)
	}
	return g, nil
}

package temporal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment line
% another comment

0 1 100
1 2 105 extra-field-ignored
2 0 110
`
	g, err := ReadEdgeList(strings.NewReader(in), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.NumNodes() != 3 {
		t.Fatalf("edges=%d nodes=%d, want 3/3", g.NumEdges(), g.NumNodes())
	}
}

func TestReadEdgeListComma(t *testing.T) {
	in := "0,1,100\n1,2,105\n"
	g, err := ReadEdgeList(strings.NewReader(in), LoadOptions{Comma: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges=%d, want 2", g.NumEdges())
	}
}

func TestReadEdgeListRelabel(t *testing.T) {
	in := "1000000000000 9 5\n9 1000000000000 6\n"
	if _, err := ReadEdgeList(strings.NewReader(in), LoadOptions{}); err == nil {
		t.Fatal("want out-of-range error without Relabel")
	}
	g, err := ReadEdgeList(strings.NewReader(in), LoadOptions{Relabel: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d, want 2/2", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0 1\n",       // too few fields
		"x 1 5\n",     // bad source
		"0 y 5\n",     // bad target
		"0 1 zzz\n",   // bad timestamp
		"-4 1 5\n",    // negative node without relabel
		"0 1 5\n-1 2", // negative later line
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), LoadOptions{}); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

func TestReadEdgeListMaxEdges(t *testing.T) {
	in := "0 1 1\n1 2 2\n2 3 3\n3 4 4\n"
	g, err := ReadEdgeList(strings.NewReader(in), LoadOptions{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges=%d, want 2", g.NumEdges())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := FromEdges([]Edge{{0, 1, 3}, {2, 1, 1}, {1, 0, 7}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	got := g2.Edges()
	for i, e := range g.Edges() {
		if got[i] != e {
			t.Fatalf("edge %d = %v, want %v", i, got[i], e)
		}
	}
}

func TestSaveLoadFileGzip(t *testing.T) {
	g := FromEdges([]Edge{{0, 1, 3}, {2, 1, 1}, {1, 0, 7}})
	for _, name := range []string{"g.txt", "g.txt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		g2, err := LoadFile(path, LoadOptions{})
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges=%d, want %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
}

// TestReadEdgeListScannerErrorLine pins the bugfix that scanner-level read
// failures (I/O errors, overlong lines) carry the failing line's number
// instead of an anonymous "read:" wrap.
func TestReadEdgeListScannerErrorLine(t *testing.T) {
	boom := errors.New("boom")
	_, err := ReadEdgeList(&failingReader{data: []byte("0 1 2\n1 2 3\n"), err: boom}, LoadOptions{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "temporal: line 3: read: boom") {
		t.Fatalf("want line-numbered read error, got %v", err)
	}
	// Same failure through the parallel pipeline.
	_, perr := ReadEdgeList(&failingReader{data: []byte("0 1 2\n1 2 3\n"), err: boom}, LoadOptions{Workers: 4})
	if perr == nil || perr.Error() != err.Error() {
		t.Fatalf("parallel read error %v, want %v", perr, err)
	}
}

func TestReadEdgeListTokenTooLongLine(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 17MB line")
	}
	input := "0 1 2\n1 " + strings.Repeat("9", 17*1024*1024) + " 3\n2 3 4\n"
	want, err := ReadEdgeList(strings.NewReader(input), LoadOptions{Workers: 1})
	if err == nil || want != nil || !strings.Contains(err.Error(), "line 2") ||
		!strings.Contains(err.Error(), "token too long") {
		t.Fatalf("want line-2 token-too-long error, got %v", err)
	}
	for _, workers := range []int{2, 4} {
		_, perr := ReadEdgeList(strings.NewReader(input), LoadOptions{Workers: workers})
		if perr == nil || perr.Error() != err.Error() {
			t.Fatalf("workers=%d: error %v, want %v", workers, perr, err)
		}
	}
}

// TestSaveFileWriteError covers the bugfix that SaveFile reports late write
// and close failures instead of silently "succeeding": /dev/full accepts
// the open but fails every flush with ENOSPC. (A true close-only failure
// needs an interposing filesystem; the structural fix — single Close, its
// error propagated — is exercised by the happy-path round-trip tests.)
func TestSaveFileWriteError(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	g := FromEdges([]Edge{{0, 1, 3}, {2, 1, 1}, {1, 0, 7}})
	if err := SaveFile("/dev/full", g); err == nil {
		t.Fatal("plain save to /dev/full reported success")
	}
	// Exercise the gzip branch against the same device via a symlink whose
	// name carries the .gz suffix.
	link := filepath.Join(t.TempDir(), "full.gz")
	if err := os.Symlink("/dev/full", link); err != nil {
		t.Skip("cannot symlink:", err)
	}
	g2 := FromEdges(bigEdgeSet(4096))
	if err := SaveFile(link, g2); err == nil {
		t.Fatal("gzip save to /dev/full reported success")
	}
}

func bigEdgeSet(n int) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{From: NodeID(i % 97), To: NodeID((i + 1) % 89), Time: Timestamp(i)}
	}
	return edges
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt"), LoadOptions{}); err == nil {
		t.Fatal("want error for missing file")
	}
}

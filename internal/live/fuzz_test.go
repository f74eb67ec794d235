package live

import (
	"fmt"
	"strings"
	"testing"

	"hare/internal/fast"
	"hare/internal/stream"
	"hare/internal/temporal"
)

// fuzzBody is one IngestText body with the verdict it must get: the edges
// it carries in line order, and the input line a rejection must name (0
// when the body is valid on its own and only the watermark can reject it).
type fuzzBody struct {
	text    string
	edges   []temporal.Edge
	lines   []int // lines[i] is the input line of edges[i]
	badLine int   // first malformed or out-of-range line
}

// fuzzIngestInput decodes fuzz bytes into δ and a run of IngestText bodies.
// The first byte picks δ in [0, 15]. Then four bytes make one record:
//   - b0, b1: node ids in [-1, 30]; 0xf0-0xfe name ids 100-1500 (so the
//     window table grows mid-stream) and 0xff names MaxNodes;
//   - b2: a time step in [-2, 5], so bodies are mostly ordered, with ties
//     and the odd step back, within a body and across bodies;
//   - b3: bits 0-1 clear end the body after this record; bits 2-3 put a
//     comment line (01) or a blank line (10) before it, or, with bit 4 set
//     too, make its lines malformed (11); bits 5-7 repeat it 2^n times with
//     the ids shifted by the copy's index mod 7, so two records reach
//     MinParallelBatch and the counter's phased path.
//
// Decoding stops after maxFuzzLines lines, so one input stays cheap.
const (
	maxFuzzLines  = 2048
	maxFuzzBodies = 32
)

func fuzzIngestInput(data []byte) (delta temporal.Timestamp, bodies []fuzzBody) {
	if len(data) == 0 {
		return 0, nil
	}
	delta, data = temporal.Timestamp(data[0]%16), data[1:]
	id := func(b byte) int64 {
		switch {
		case b == 0xff:
			return MaxNodes
		case b >= 0xf0:
			return 100 * int64(b-0xef)
		}
		return int64(b%32) - 1
	}
	var (
		now    temporal.Timestamp
		sb     strings.Builder
		cur    fuzzBody
		lineNo int
		total  int
	)
	for ; len(data) >= 4 && total < maxFuzzLines && len(bodies) < maxFuzzBodies; data = data[4:] {
		u, v, flag := id(data[0]), id(data[1]), data[3]
		malformed := flag&0x1c == 0x1c
		now += temporal.Timestamp(data[2]%8) - 2
		switch flag >> 2 & 3 {
		case 1:
			sb.WriteString("# comment\n")
			lineNo++
		case 2:
			sb.WriteString("\n")
			lineNo++
		}
		for i := int64(0); i < 1<<(flag>>5); i++ {
			cu, cv := u, v
			if cu >= 0 {
				cu += i % 7
			}
			if cv >= 0 {
				cv += i % 7
			}
			lineNo++
			total++
			if malformed {
				fmt.Fprintf(&sb, "%d %d x%d\n", cu, cv, now)
				if cur.badLine == 0 {
					cur.badLine = lineNo
				}
				continue
			}
			fmt.Fprintf(&sb, "%d %d %d\n", cu, cv, now)
			if (cu < 0 || cv < 0 || cu >= MaxNodes || cv >= MaxNodes) && cur.badLine == 0 {
				cur.badLine = lineNo
			}
			cur.edges = append(cur.edges, temporal.Edge{From: temporal.NodeID(cu), To: temporal.NodeID(cv), Time: now})
			cur.lines = append(cur.lines, lineNo)
		}
		if flag&3 == 0 {
			cur.text = sb.String()
			bodies = append(bodies, cur)
			sb.Reset()
			cur, lineNo = fuzzBody{}, 0
		}
	}
	if sb.Len() > 0 {
		cur.text = sb.String()
		bodies = append(bodies, cur)
	}
	return delta, bodies
}

// FuzzIngestText replays arbitrary bodies through IngestText on a
// two-worker dataset. Each body must end one of two ways. Rejected: with a
// "live: line N" error naming the first malformed, out-of-range or
// out-of-order line, and version, edge count and both matrices unmoved.
// Accepted: Matrix equals fast.Count over the accepted log and WindowMatrix
// equals a sequential sliding stream.Counter fed the same edges by Add.
// The seeds are testdata/fuzz/FuzzIngestText.
func FuzzIngestText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		delta, bodies := fuzzIngestInput(data)
		d, err := New("fuzz", Options{Delta: delta, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stream.NewSliding(delta)
		if err != nil {
			t.Fatal(err)
		}
		var (
			log     []temporal.Edge
			last    temporal.Timestamp
			started bool
		)
		for bi, b := range bodies {
			// The line a rejection must name: a malformed or out-of-range
			// line first, else the first edge behind the watermark.
			want, wl, ws := b.badLine, last, started
			for i, e := range b.edges {
				if want != 0 {
					break
				}
				if ws && e.Time < wl {
					want = b.lines[i]
				}
				ws, wl = true, e.Time
			}
			version, edges := d.Version(), d.Edges()
			m0, w0 := d.Matrix(), d.WindowMatrix()
			label := fmt.Sprintf("body %d of %d (δ=%d, %d edges)", bi, len(bodies), delta, len(b.edges))

			_, err := d.IngestText(strings.NewReader(b.text))
			if want != 0 {
				prefix := fmt.Sprintf("live: line %d: ", want)
				if err == nil || !strings.HasPrefix(err.Error(), prefix) {
					t.Fatalf("%s: err = %v, want prefix %q", label, err, prefix)
				}
				m, w := d.Matrix(), d.WindowMatrix()
				if d.Version() != version || d.Edges() != edges || !m.Equal(&m0) || !w.Equal(&w0) {
					t.Fatalf("%s: rejected body moved the dataset", label)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: valid body rejected: %v", label, err)
			}
			if len(b.edges) > 0 {
				version++
				started, last = true, b.edges[len(b.edges)-1].Time
			}
			if d.Version() != version {
				t.Fatalf("%s: version %d, want %d", label, d.Version(), version)
			}
			log = append(log, b.edges...)
			for _, e := range b.edges {
				if err := ref.Add(e.From, e.To, e.Time); err != nil {
					t.Fatalf("%s: reference Add: %v", label, err)
				}
			}
			got, wantM := d.Matrix(), fast.Count(temporal.FromEdges(log), delta).ToMatrix()
			if !got.Equal(&wantM) {
				t.Fatalf("%s: Matrix vs fast.Count diff %v", label, got.Diff(&wantM))
			}
			gotW := d.WindowMatrix()
			wantW, err := ref.WindowMatrix()
			if err != nil {
				t.Fatal(err)
			}
			if !gotW.Equal(&wantW) {
				t.Fatalf("%s: WindowMatrix vs sequential Add diff %v", label, gotW.Diff(&wantW))
			}
		}
	})
}

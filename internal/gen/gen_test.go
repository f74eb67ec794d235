package gen

import (
	"testing"

	"hare/internal/fast"
	"hare/internal/motif"
	"hare/internal/temporal"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "n", Nodes: 1, Edges: 1, TimeSpan: 10, ZipfS: 1.5},
		{Name: "e", Nodes: 5, Edges: -1, TimeSpan: 10, ZipfS: 1.5},
		{Name: "t", Nodes: 5, Edges: 1, TimeSpan: 0, ZipfS: 1.5},
		{Name: "z", Nodes: 5, Edges: 1, TimeSpan: 10, ZipfS: 1.0},
		{Name: "p", Nodes: 5, Edges: 1, TimeSpan: 10, ZipfS: 1.5, ReplyProb: 0.6, RepeatProb: 0.6},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q: want validation error", c.Name)
		}
		if _, err := Generate(c); err == nil {
			t.Errorf("config %q: Generate should fail", c.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "d", Nodes: 100, Edges: 2000, TimeSpan: 50_000, ZipfS: 1.7,
		ReplyProb: 0.2, RepeatProb: 0.1, TriadProb: 0.05, BurstLen: 4, Seed: 7}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	cfg.Seed = 8
	c, _ := Generate(cfg)
	same := true
	ce := c.Edges()
	for i := range ae {
		if ae[i] != ce[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{Name: "s", Nodes: 500, Edges: 10_000, TimeSpan: 200_000, ZipfS: 1.8,
		ReplyProb: 0.25, RepeatProb: 0.1, TriadProb: 0.05, BurstLen: 5, Seed: 3}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != cfg.Edges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), cfg.Edges)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, max, ok := g.TimeSpan()
	if !ok || max <= 0 {
		t.Fatal("degenerate time span")
	}
	st := temporal.ComputeStats(g, 20)
	if st.DegreeGini < 0.3 {
		t.Errorf("degree gini = %.2f, want heavy tail (> 0.3)", st.DegreeGini)
	}
	if st.MaxDegree < 20*int(st.MeanDegree) {
		t.Errorf("max degree %d not hub-like vs mean %.1f", st.MaxDegree, st.MeanDegree)
	}
}

// The processes must actually produce all three motif categories — otherwise
// the benchmark workloads would be degenerate.
func TestGenerateProducesAllCategories(t *testing.T) {
	cfg := Config{Name: "m", Nodes: 300, Edges: 8000, TimeSpan: 80_000, ZipfS: 1.7,
		ReplyProb: 0.25, RepeatProb: 0.1, TriadProb: 0.08, BurstLen: 5, Seed: 11}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := fast.Count(g, 600).ToMatrix()
	if m.CategoryTotal(motif.CategoryPair) == 0 {
		t.Error("no pair motifs generated")
	}
	if m.CategoryTotal(motif.CategoryStar) == 0 {
		t.Error("no star motifs generated")
	}
	if m.CategoryTotal(motif.CategoryTri) == 0 {
		t.Error("no triangle motifs generated")
	}
}

func TestDatasetsTable(t *testing.T) {
	if len(Datasets) != 16 {
		t.Fatalf("datasets = %d, want 16 (paper Table II)", len(Datasets))
	}
	seen := map[string]bool{}
	for _, c := range Datasets {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if seen[c.Name] {
			t.Errorf("duplicate dataset %q", c.Name)
		}
		seen[c.Name] = true
	}
	if _, err := DatasetByName("wikitalk"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("want error for unknown dataset")
	}
	if len(DatasetNames()) != 16 {
		t.Error("DatasetNames size wrong")
	}
}

func TestScaled(t *testing.T) {
	cfg, _ := DatasetByName("wikitalk")
	s := Scaled(cfg, 0.1)
	if s.Nodes != cfg.Nodes/10 || s.Edges != cfg.Edges/10 {
		t.Fatalf("scaled = %d/%d", s.Nodes, s.Edges)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if tiny := Scaled(cfg, 1e-9); tiny.Validate() != nil {
		t.Fatal("tiny scale must stay valid")
	}
	if same := Scaled(cfg, 1); same != cfg {
		t.Fatal("scale 1 must be identity")
	}
}

func TestMustGenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate should panic on invalid config")
		}
	}()
	MustGenerate(Config{Name: "bad", Nodes: 0, Edges: 1, TimeSpan: 1, ZipfS: 2})
}

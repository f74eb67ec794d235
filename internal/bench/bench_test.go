package bench

import (
	"strings"
	"testing"
)

// tinyOpts keeps harness smoke tests fast.
func tinyOpts(buf *strings.Builder, datasets ...string) Options {
	return Options{
		Out:      buf,
		Scale:    0.01,
		Datasets: datasets,
		Threads:  []int{1, 2},
	}
}

func TestTable2(t *testing.T) {
	var buf strings.Builder
	if err := Table2(tinyOpts(&buf, "email-eu", "collegemsg")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "email-eu", "collegemsg", "#edges"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) {
	var buf strings.Builder
	if err := Table3(tinyOpts(&buf, "collegemsg")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III", "FAST-Pair", "2SCENT", "collegemsg"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9(t *testing.T) {
	var buf strings.Builder
	if err := Fig9(tinyOpts(&buf, "wikitalk")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "degree bucket") {
		t.Errorf("output missing bucket table:\n%s", buf.String())
	}
}

func TestFig10(t *testing.T) {
	var buf strings.Builder
	if err := Fig10(tinyOpts(&buf, "collegemsg")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IDENTICAL") {
		t.Errorf("FAST and EX should agree:\n%s", buf.String())
	}
}

func TestFig11(t *testing.T) {
	var buf strings.Builder
	if err := Fig11(tinyOpts(&buf, "sms-a")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"HARE", "EX", "BTS-Pair", "#threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig12a(t *testing.T) {
	var buf strings.Builder
	if err := Fig12a(tinyOpts(&buf, "mathoverflow")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "runtime vs δ") {
		t.Errorf("output missing sweep header:\n%s", buf.String())
	}
}

func TestFig12b(t *testing.T) {
	var buf strings.Builder
	if err := Fig12b(tinyOpts(&buf, "wikitalk")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"without-thrd(static)", "dynamic", "thrd=auto(top20)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	var buf strings.Builder
	if err := Run("table2", tinyOpts(&buf, "collegemsg")); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", tinyOpts(&buf)); err == nil {
		t.Fatal("want error for unknown experiment")
	}
	if got := Experiments(); len(got) != 7 {
		t.Fatalf("experiments = %v", got)
	}
}

func TestUnknownDataset(t *testing.T) {
	var buf strings.Builder
	if err := Table2(tinyOpts(&buf, "not-a-dataset")); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestCapThreads(t *testing.T) {
	got := capThreads([]int{0, 1, 1, 4, 1 << 20})
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("capThreads = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
	if got := capThreads(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("empty capThreads = %v", got)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at toy scale and
// holds what they emit to BENCHMARK.json: the same workloads, the same
// metric names and units, and no failed operation. It asserts no timing,
// so it cannot flake on a slow or noisy machine.
func TestSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	if err := e.buildSUT(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if !slices.Equal(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, have)
	}

	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(e, config{
				workload: w.name, seed: 7, seconds: 0.5, trace: traced, outDir: out, sizes: toySizes,
			})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.name, traced, err)
			}
			if rep.Attempted < 1 || rep.Failed != 0 || !rep.Correct {
				t.Errorf("%s (trace=%v): attempted %d, failed %d: %v", w.name, traced, rep.Attempted, rep.Failed, rep.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics emitted, BENCHMARK.json declares %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (trace=%v): metric %s is declared but not emitted", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s (trace=%v): metric %s has unit %q, declared %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

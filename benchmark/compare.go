package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json --compare needs: each
// end-to-end metric's direction and bound.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadReports reads every untraced report under a directory (or the one
// file named) into workload -> metric -> values.
func loadReports(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*-e2e-*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced reports", path)
	}
	return out, nil
}

// compareReports prints, for every workload and end-to-end metric, set
// B's median as a ratio of set A's, with its base. A pair is "worse"
// beyond the metric's bound, and "unresolved" when either set's own
// spread (quartile distance over median) is wider than the bound or the
// two sets' quartile ranges overlap while the medians differ by more
// than the bound: the runs then cannot tell a change from noise.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := make([]string, 0, len(a))
	for wl := range a {
		if b[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-14s %5s %12s %7s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A iqr", "B median", "B iqr", "B/A", "bound", "verdict")
	for _, wl := range names {
		for _, m := range decl.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			ratio := bm / am
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within bound"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved (spread beyond bound)"
			case worse > m.Bound && a1 <= b3 && b1 <= a3:
				verdict = "unresolved (quartiles overlap)"
			case worse > m.Bound:
				verdict = "WORSE beyond bound"
			}
			fmt.Fprintf(w, "%-16s %-14s %5s %12.4f %6.1f%% %12.4f %6.1f%% %7.3f %5.0f%%  %s (n=%d,%d)\n",
				wl, m.Name, m.Unit, am, 100*spread(va), bm, 100*spread(vb), ratio, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return nil
}

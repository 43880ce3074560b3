package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// layerTargets maps a per-layer metric, by the layer prefix of its name,
// to the end-to-end metrics a change in it should move (README.md has the
// workloads where each should and should not move).
var layerTargets = []struct {
	prefix string
	e2e    []string
}{
	{"core.", []string{"op_s"}},
	{"route.", []string{"op_s"}},
	{"eco.", []string{"op_s", "op_s_p90"}},
	{"engine.", []string{"op_s", "cpu_s"}},
	{"sino.", []string{"cpu_s"}},
	{"keff.", []string{"cpu_s"}},
	{"refine.", []string{"op_s"}},
	{"artifact.", []string{"op_s", "op_s_p90", "setup_s"}},
	{"sched.", []string{"op_s"}},
	{"ibm.", []string{"setup_s"}},
}

func targetsOf(layerMetric string) []string {
	for _, t := range layerTargets {
		if strings.HasPrefix(layerMetric, t.prefix) {
			return t.e2e
		}
	}
	return nil
}

// readRecords reads a results file: one record per line, as runAll
// prints them. It returns values[workload][metric] in file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a results record (no workload)", path, n)
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	return vals, sc.Err()
}

// verdict judges head against base for one metric where lower is better
// (every end-to-end metric in BENCHMARK.json is), by the rule for
// measuring in a small sandbox:
//
//   - better: head wins at least 9/10 of the paired runs (ties count for
//     neither) and the medians differ by more than base's quartile spread;
//   - unresolved: base's own spread is wider than the bound, so a change
//     within it cannot be told from noise (unless every head run beats
//     every base run);
//   - worse: head's median is worse than base's by more than the bound;
//   - unchanged: otherwise.
func verdict(base, head []float64, bound float64) string {
	n := min(len(base), len(head))
	if n == 0 {
		return "unresolved"
	}
	wins := 0
	for i := 0; i < n; i++ {
		if head[i] < base[i] {
			wins++
		}
	}
	bm, hm := median(base), median(head)
	q1, q3 := quartiles(base)
	if float64(wins) >= math.Ceil(0.9*float64(n)) && bm-hm > q3-q1 {
		return "better"
	}
	if bm != 0 && (q3-q1)/bm > bound {
		if slices.Max(head) < slices.Min(base) {
			return "better"
		}
		return "unresolved"
	}
	if bm != 0 && (hm-bm)/bm > bound {
		return "worse"
	}
	return "unchanged"
}

// compare prints, for each workload and end-to-end metric, both sides'
// medians and quartiles and a verdict, with the per-layer deltas that map
// to the metric listed beneath it.
func compare(basePath, headPath, specPath string, w io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return fmt.Errorf("parsing %s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	for _, sp := range workloads {
		b, h := base[sp.name], head[sp.name]
		if b == nil || h == nil {
			fmt.Fprintf(w, "%s: not in both files\n", sp.name)
			continue
		}
		fmt.Fprintf(w, "%s\n", sp.name)
		for _, m := range bs.EndToEnd {
			bv, hv := b[m.Name], h[m.Name]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			fmt.Fprintf(w, "  %-12s base %.6g [%.6g, %.6g] n=%d  head %.6g [%.6g, %.6g] n=%d  %+.1f%%  bound %.0f%%  %s\n",
				m.Name, median(bv), bq1, bq3, len(bv), median(hv), hq1, hq3, len(hv),
				100*ratio(median(hv)-median(bv), median(bv)), 100*m.Bound, verdict(bv, hv, m.Bound))
			for _, l := range bs.PerLayer {
				if !slices.Contains(targetsOf(l.Name), m.Name) {
					continue
				}
				lb, lh := b[l.Name], h[l.Name]
				if len(lb) == 0 || len(lh) == 0 {
					continue
				}
				fmt.Fprintf(w, "      %-32s %.6g -> %.6g %s (%+.1f%%)\n", l.Name, median(lb), median(lh), l.Unit,
					100*ratio(median(lh)-median(lb), median(lb)))
			}
		}
	}
	return nil
}

// Package report renders the paper's evaluation tables from flow outcomes
// and compares them against the numbers published in the paper (Tables 1–3
// of Ma & He, DAC'02).
//
// A Set is safe for concurrent Add — the batch scheduler (internal/sched)
// streams outcomes into one Set from many cells — and every renderer
// iterates cells in sorted (circuit, rate, flow) order, so the output is
// independent of insertion order and therefore of how a batch was
// scheduled. All writers return the first error the underlying io.Writer
// reported: table output redirected to a full disk fails loudly, not by
// silent truncation.
package report

import (
	"cmp"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/orderutil"
)

// Key identifies one experimental cell: a circuit at a sensitivity rate.
type Key struct {
	Circuit string
	Rate    float64
}

// Set collects outcomes by (circuit, rate, flow). The zero Set is not
// usable; call NewSet. Add, Get, and the renderers may be called
// concurrently.
type Set struct {
	mu       sync.RWMutex
	outcomes map[Key]map[core.Flow]*core.Outcome
}

// NewSet returns an empty outcome collection.
func NewSet() *Set {
	return &Set{outcomes: make(map[Key]map[core.Flow]*core.Outcome)}
}

// Add records an outcome. It is safe for concurrent use; rendered output
// does not depend on the order outcomes arrived in.
func (s *Set) Add(o *core.Outcome) {
	k := Key{Circuit: o.Design, Rate: o.Rate}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outcomes[k] == nil {
		s.outcomes[k] = make(map[core.Flow]*core.Outcome)
	}
	s.outcomes[k][o.Flow] = o
}

// Get returns the outcome for a cell and flow, or nil.
func (s *Set) Get(circuit string, rate float64, f core.Flow) *core.Outcome {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.outcomes[Key{Circuit: circuit, Rate: rate}][f]
}

// keys returns the cells sorted by circuit then rate.
func (s *Set) keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return orderutil.SortedKeysFunc(s.outcomes, func(a, b Key) int {
		if a.Circuit != b.Circuit {
			return cmp.Compare(a.Circuit, b.Circuit)
		}
		return cmp.Compare(a.Rate, b.Rate)
	})
}

// circuits returns the distinct circuit names in order.
func (s *Set) circuits() []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range s.keys() {
		if !seen[k.Circuit] {
			seen[k.Circuit] = true
			out = append(out, k.Circuit)
		}
	}
	return out
}

// errWriter forwards writes to w until the first failure, then swallows the
// rest and remembers that error — so renderers can print unconditionally
// and report the failure once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	e.err = err
	return len(p), nil
}

// PaperRow holds the published values for one circuit (used for
// paper-vs-measured columns; zero values print as "-").
type PaperRow struct {
	Viol30Pct, Viol50Pct       float64 // Table 1
	WLOverhead30, WLOverhead50 float64 // Table 2 (GSINO vs ID+NO, %)
	ISINOArea30, ISINOArea50   float64 // Table 3 (iSINO overhead, %)
	GSINOArea30, GSINOArea50   float64 // Table 3 (GSINO overhead, %)
}

// Paper returns the published Tables 1–3 summary rows.
func Paper() map[string]PaperRow {
	return map[string]PaperRow{
		"ibm01": {14.60, 19.78, 6.89, 10.49, 17.04, 25.53, 6.04, 6.51},
		"ibm02": {16.87, 22.16, 9.94, 14.50, 17.99, 25.39, 5.74, 9.54},
		"ibm03": {18.85, 23.20, 10.82, 16.38, 17.18, 23.82, 6.00, 9.77},
		"ibm04": {16.42, 18.92, 8.96, 16.04, 16.78, 22.47, 7.31, 7.67},
		"ibm05": {14.71, 24.07, 6.62, 12.81, 19.73, 23.00, 8.74, 7.75},
		"ibm06": {13.96, 19.11, 7.54, 11.83, 17.09, 22.46, 8.26, 11.00},
	}
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

func paperPct(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", v)
}

// Table1 renders the crosstalk-violation table (ID+NO flow) with the
// paper's numbers alongside. It returns the first write error.
func (s *Set) Table1(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "Table 1: crosstalk-violating nets in ID+NO solutions")
	fmt.Fprintf(ew, "%-8s %6s | %12s %10s %10s | %12s %10s %10s\n",
		"circuit", "nets", "viol@30%", "ours", "paper", "viol@50%", "ours", "paper")
	paper := Paper()
	for _, c := range s.circuits() {
		o30 := s.Get(c, 0.3, core.FlowIDNO)
		o50 := s.Get(c, 0.5, core.FlowIDNO)
		if o30 == nil && o50 == nil {
			continue
		}
		row := paper[c]
		nets, v30, p30, v50, p50 := "-", "-", "-", "-", "-"
		if o30 != nil {
			nets = fmt.Sprint(o30.TotalNets)
			v30 = fmt.Sprint(o30.Violations)
			p30 = pct(o30.ViolationPct)
		}
		if o50 != nil {
			nets = fmt.Sprint(o50.TotalNets)
			v50 = fmt.Sprint(o50.Violations)
			p50 = pct(o50.ViolationPct)
		}
		fmt.Fprintf(ew, "%-8s %6s | %12s %10s %10s | %12s %10s %10s\n",
			c, nets, v30, p30, paperPct(row.Viol30Pct), v50, p50, paperPct(row.Viol50Pct))
	}
	return ew.err
}

// Table2 renders average wirelengths of ID+NO vs GSINO with overhead
// percentages, paper alongside. It returns the first write error.
func (s *Set) Table2(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "Table 2: average wirelength (um), ID+NO vs GSINO")
	fmt.Fprintf(ew, "%-8s | %9s %9s %9s %9s | %9s %9s %9s %9s\n",
		"circuit", "base@30", "gsino@30", "ours", "paper", "base@50", "gsino@50", "ours", "paper")
	paper := Paper()
	for _, c := range s.circuits() {
		row := paper[c]
		cols := make([]string, 8)
		for i := range cols {
			cols[i] = "-"
		}
		if base, g := s.Get(c, 0.3, core.FlowIDNO), s.Get(c, 0.3, core.FlowGSINO); base != nil && g != nil {
			cols[0] = fmt.Sprintf("%.0f", float64(base.AvgWL))
			cols[1] = fmt.Sprintf("%.0f", float64(g.AvgWL))
			cols[2] = pct(g.WLOverheadPct(base))
			cols[3] = paperPct(row.WLOverhead30)
		}
		if base, g := s.Get(c, 0.5, core.FlowIDNO), s.Get(c, 0.5, core.FlowGSINO); base != nil && g != nil {
			cols[4] = fmt.Sprintf("%.0f", float64(base.AvgWL))
			cols[5] = fmt.Sprintf("%.0f", float64(g.AvgWL))
			cols[6] = pct(g.WLOverheadPct(base))
			cols[7] = paperPct(row.WLOverhead50)
		}
		fmt.Fprintf(ew, "%-8s | %9s %9s %9s %9s | %9s %9s %9s %9s\n",
			c, cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7])
	}
	return ew.err
}

// Table3 renders routing areas of the three flows with overheads versus
// ID+NO, paper alongside. It returns the first write error.
func (s *Set) Table3(w io.Writer) error {
	ew := &errWriter{w: w}
	paper := Paper()
	for _, rate := range []float64{0.3, 0.5} {
		fmt.Fprintf(ew, "Table 3 (sensitivity %.0f%%): routing area, overhead vs ID+NO\n", rate*100)
		fmt.Fprintf(ew, "%-8s | %15s | %15s %8s %8s | %15s %8s %8s\n",
			"circuit", "ID+NO", "iSINO", "ours", "paper", "GSINO", "ours", "paper")
		for _, c := range s.circuits() {
			base := s.Get(c, rate, core.FlowIDNO)
			is := s.Get(c, rate, core.FlowISINO)
			gs := s.Get(c, rate, core.FlowGSINO)
			if base == nil {
				continue
			}
			row := paper[c]
			pISINO, pGSINO := row.ISINOArea30, row.GSINOArea30
			if rate == 0.5 {
				pISINO, pGSINO = row.ISINOArea50, row.GSINOArea50
			}
			isArea, isPct, gsArea, gsPct := "-", "-", "-", "-"
			if is != nil {
				isArea, isPct = is.Area.String(), pct(is.AreaOverheadPct(base))
			}
			if gs != nil {
				gsArea, gsPct = gs.Area.String(), pct(gs.AreaOverheadPct(base))
			}
			fmt.Fprintf(ew, "%-8s | %15s | %15s %8s %8s | %15s %8s %8s\n",
				c, base.Area.String(), isArea, isPct, paperPct(pISINO), gsArea, gsPct, paperPct(pGSINO))
		}
	}
	return ew.err
}

// Deltas renders the paper's §4 closing observation: the reduction in GSINO
// overheads when the sensitivity rate drops from 50% to 30%. It returns the
// first write error.
func (s *Set) Deltas(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "Sensitivity 50% -> 30%: reduction of GSINO overheads (paper: ~26% WL, ~20% area)")
	fmt.Fprintf(ew, "%-8s %14s %14s\n", "circuit", "WL-overhead", "area-overhead")
	for _, c := range s.circuits() {
		b30, g30 := s.Get(c, 0.3, core.FlowIDNO), s.Get(c, 0.3, core.FlowGSINO)
		b50, g50 := s.Get(c, 0.5, core.FlowIDNO), s.Get(c, 0.5, core.FlowGSINO)
		if b30 == nil || g30 == nil || b50 == nil || g50 == nil {
			continue
		}
		wl30, wl50 := g30.WLOverheadPct(b30), g50.WLOverheadPct(b50)
		ar30, ar50 := g30.AreaOverheadPct(b30), g50.AreaOverheadPct(b50)
		wlRed, arRed := "-", "-"
		if wl50 > 0 {
			wlRed = pct((wl50 - wl30) / wl50 * 100)
		}
		if ar50 > 0 {
			arRed = pct((ar50 - ar30) / ar50 * 100)
		}
		fmt.Fprintf(ew, "%-8s %14s %14s\n", c, wlRed, arRed)
	}
	return ew.err
}

// Tables renders what the tables command prints: Tables 1, 2 and 3 and
// the sensitivity deltas, each after a blank line. It returns the first
// write error.
func (s *Set) Tables(w io.Writer) error {
	for _, table := range []func(io.Writer) error{s.Table1, s.Table2, s.Table3, s.Deltas} {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := table(w); err != nil {
			return err
		}
	}
	return nil
}

// CSV emits every outcome as comma-separated rows for external analysis and
// returns the first write error. Every column is a deterministic function
// of the design and parameters — wall-clock timing is deliberately absent,
// so CSV bytes are identical however a batch was scheduled (timings go to
// the scheduler's stderr counters instead).
func (s *Set) CSV(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintln(ew, "circuit,rate,flow,nets,violations,violation_pct,avg_wl_um,total_wl_um,area_w_um,area_h_um,shields,seg_tracks")
	for _, k := range s.keys() {
		for _, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
			o := s.Get(k.Circuit, k.Rate, f)
			if o == nil {
				continue
			}
			fmt.Fprintf(ew, "%s,%.2f,%s,%d,%d,%.4f,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
				k.Circuit, k.Rate, o.Flow, o.TotalNets, o.Violations, o.ViolationPct,
				float64(o.AvgWL), float64(o.TotalWL), float64(o.Area.W), float64(o.Area.H),
				o.Shields, o.SegTracks)
		}
	}
	return ew.err
}

package report

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
)

func outcome(circuit string, rate float64, flow core.Flow, viol int, totalWL float64, areaW, areaH geom.Micron) *core.Outcome {
	return &core.Outcome{
		Flow: flow, Design: circuit, Rate: rate,
		TotalNets: 1000, Violations: viol, ViolationPct: float64(viol) / 10,
		AvgWL: geom.Micron(totalWL / 1000), TotalWL: geom.Micron(totalWL),
		Area: grid.Area{W: areaW, H: areaH},
	}
}

func populated() *Set {
	s := NewSet()
	for _, rate := range []float64{0.3, 0.5} {
		s.Add(outcome("ibm01", rate, core.FlowIDNO, 150, 640000, 1533, 1824))
		s.Add(outcome("ibm01", rate, core.FlowISINO, 0, 640000, 1650, 1950))
		s.Add(outcome("ibm01", rate, core.FlowGSINO, 0, 680000, 1590, 1870))
	}
	return s
}

func TestAddAndGet(t *testing.T) {
	s := populated()
	if o := s.Get("ibm01", 0.3, core.FlowIDNO); o == nil || o.Violations != 150 {
		t.Fatalf("Get returned %+v", o)
	}
	if o := s.Get("ibm01", 0.4, core.FlowIDNO); o != nil {
		t.Fatal("Get for missing rate should be nil")
	}
	if o := s.Get("ibm09", 0.3, core.FlowIDNO); o != nil {
		t.Fatal("Get for missing circuit should be nil")
	}
}

func TestTablesRender(t *testing.T) {
	s := populated()
	var b1, b2, b3, d strings.Builder
	s.Table1(&b1)
	s.Table2(&b2)
	s.Table3(&b3)
	s.Deltas(&d)

	if !strings.Contains(b1.String(), "ibm01") || !strings.Contains(b1.String(), "15.00%") {
		t.Errorf("Table1 missing measured data:\n%s", b1.String())
	}
	if !strings.Contains(b1.String(), "14.60%") {
		t.Errorf("Table1 missing paper column:\n%s", b1.String())
	}
	if !strings.Contains(b2.String(), "6.25%") { // 680000/640000 - 1
		t.Errorf("Table2 missing WL overhead:\n%s", b2.String())
	}
	if !strings.Contains(b3.String(), "1533 x 1824") {
		t.Errorf("Table3 missing base area:\n%s", b3.String())
	}
	if !strings.Contains(d.String(), "ibm01") {
		t.Errorf("Deltas missing circuit:\n%s", d.String())
	}
}

func TestCSV(t *testing.T) {
	s := populated()
	var b strings.Builder
	if err := s.CSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// Header + 2 rates x 3 flows.
	if len(lines) != 7 {
		t.Fatalf("CSV has %d lines, want 7:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "circuit,rate,flow") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if strings.Contains(lines[0], "runtime") {
		t.Errorf("CSV header carries a wall-clock column, breaking batch determinism: %q", lines[0])
	}
	wantCommas := strings.Count(lines[0], ",")
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != wantCommas {
			t.Errorf("CSV row has %d commas, want %d: %q", got, wantCommas, l)
		}
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct {
	n       int
	written int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		keep := f.n - f.written
		if keep < 0 {
			keep = 0
		}
		f.written += keep
		return keep, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

var errDiskFull = errors.New("disk full")

// TestWriterErrorsSurface pins the satellite fix: a writer that fails
// mid-render (full disk) must surface its error from every renderer instead
// of silently truncating the output.
func TestWriterErrorsSurface(t *testing.T) {
	s := populated()
	renderers := map[string]func(io.Writer) error{
		"Table1": s.Table1,
		"Table2": s.Table2,
		"Table3": s.Table3,
		"Deltas": s.Deltas,
		"CSV":    s.CSV,
	}
	for name, render := range renderers {
		if err := render(&failingWriter{n: 30}); !errors.Is(err, errDiskFull) {
			t.Errorf("%s on a failing writer returned %v, want disk-full error", name, err)
		}
		if err := render(io.Discard); err != nil {
			t.Errorf("%s on a working writer returned %v", name, err)
		}
	}
}

// TestSetConcurrentAdd exercises the scheduler's usage: many goroutines
// Add outcomes while others render. Run under -race this pins Set's
// concurrency safety; the final render must also contain every cell,
// whatever order the adds landed in.
func TestSetConcurrentAdd(t *testing.T) {
	s := NewSet()
	circuits := []string{"ibm01", "ibm02", "ibm03", "ibm04"}
	var wg sync.WaitGroup
	for ci, c := range circuits {
		for _, rate := range []float64{0.3, 0.5} {
			for fi, f := range []core.Flow{core.FlowIDNO, core.FlowISINO, core.FlowGSINO} {
				c, rate, f := c, rate, f
				viol, wl := 100+10*ci+fi, 640000+1000*float64(ci)
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.Add(outcome(c, rate, f, viol, wl, 1533, 1824))
				}()
			}
		}
	}
	// Render concurrently with the adds: must be race-free (content is
	// whatever subset has landed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var b strings.Builder
		if err := s.Table1(&b); err != nil {
			t.Errorf("concurrent Table1: %v", err)
		}
		if err := s.CSV(&b); err != nil {
			t.Errorf("concurrent CSV: %v", err)
		}
	}()
	wg.Wait()

	var b strings.Builder
	if err := s.CSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := 1 + len(circuits)*2*3
	if len(lines) != want {
		t.Fatalf("CSV after concurrent adds has %d lines, want %d", len(lines), want)
	}
	for _, c := range circuits {
		if s.Get(c, 0.3, core.FlowGSINO) == nil {
			t.Errorf("missing outcome for %s after concurrent adds", c)
		}
	}
}

func TestPaperNumbersPresent(t *testing.T) {
	p := Paper()
	if len(p) != 6 {
		t.Fatalf("paper rows = %d, want 6", len(p))
	}
	// Spot-check against the published tables.
	if p["ibm01"].Viol30Pct != 14.60 || p["ibm05"].Viol50Pct != 24.07 {
		t.Error("Table 1 constants wrong")
	}
	if p["ibm03"].WLOverhead50 != 16.38 {
		t.Error("Table 2 constants wrong")
	}
	if p["ibm06"].GSINOArea50 != 11.00 || p["ibm02"].ISINOArea30 != 17.99 {
		t.Error("Table 3 constants wrong")
	}
}

func TestEmptySetRenders(t *testing.T) {
	s := NewSet()
	var b strings.Builder
	s.Table1(&b)
	s.Table2(&b)
	s.Table3(&b)
	s.Deltas(&b)
	s.CSV(&b)
	if !strings.Contains(b.String(), "Table 1") {
		t.Error("headers missing for empty set")
	}
}

package keff

import (
	"math"

	"testing"
	"testing/quick"

	"repro/internal/tech"
)

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		name   string
		lsk, v []float64
	}{
		{"length mismatch", []float64{1, 2}, []float64{0.1}},
		{"too short", []float64{1}, []float64{0.1}},
		{"lsk not increasing", []float64{1, 1}, []float64{0.1, 0.2}},
		{"v not increasing", []float64{1, 2}, []float64{0.2, 0.1}},
		{"negative lsk", []float64{-1, 2}, []float64{0.1, 0.2}},
		{"zero voltage", []float64{1, 2}, []float64{0, 0.2}},
	}
	for _, c := range cases {
		if _, err := NewTable(c.lsk, c.v); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := NewTable([]float64{1, 2, 3}, []float64{0.1, 0.15, 0.2}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestTableLookupRoundTrip(t *testing.T) {
	// The default table samples the linear fit, so LSKFor must invert it
	// anywhere in the band, between entries as well as on them.
	tab := DefaultTable()
	f := func(raw uint16) bool {
		v := 0.10 + 0.10*float64(raw)/65535
		lsk := tab.LSKFor(v)
		back := defaultIntercept + defaultSlope*lsk
		return math.Abs(back-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableMonotone(t *testing.T) {
	tab := DefaultTable()
	if tab.Len() != 100 {
		t.Fatalf("default table has %d entries, want 100 (as in the paper)", tab.Len())
	}
	prev := -math.MaxFloat64
	for _, lsk := range tab.LSK {
		if lsk <= prev {
			t.Fatal("default table LSK column not strictly increasing")
		}
		prev = lsk
	}
	if tab.V[0] != 0.10 || math.Abs(tab.V[99]-0.20) > 1e-12 {
		t.Errorf("default table spans [%g, %g], want [0.10, 0.20]", tab.V[0], tab.V[99])
	}
	// 0.10–0.20 V is 10–20% of Vdd.
	vdd := tech.Default().Vdd
	if lo, hi := tab.V[0]/vdd, tab.V[99]/vdd; lo < 0.08 || hi > 0.22 {
		t.Errorf("table band [%g, %g] of Vdd outside the paper's 10-20%%", lo, hi)
	}
}

func TestTableExtrapolation(t *testing.T) {
	tab, err := NewTable([]float64{100, 200, 300}, []float64{0.10, 0.15, 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if l := tab.LSKFor(0.25); math.Abs(l-400) > 1e-9 {
		t.Errorf("extrapolated LSKFor(0.25) = %g, want 400", l)
	}
	if l := tab.LSKFor(0.075); math.Abs(l-50) > 1e-9 {
		t.Errorf("extrapolated LSKFor(0.075) = %g, want 50", l)
	}
	// LSKFor never negative even far below range.
	if l := tab.LSKFor(-1e9); l != 0 {
		t.Errorf("LSKFor(-1e9) = %g, want clamp to 0", l)
	}
	if l := tab.LSKFor(0.175); math.Abs(l-250) > 1e-9 {
		t.Errorf("LSKFor(0.175) = %g, want 250", l)
	}
}

func TestFitLinear(t *testing.T) {
	samples := []Sample{
		{LSK: 100, Noise: 0.11},
		{LSK: 200, Noise: 0.12},
		{LSK: 300, Noise: 0.13},
		{LSK: 400, Noise: 0.14},
	}
	slope, intercept, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-1e-4) > 1e-12 || math.Abs(intercept-0.10) > 1e-12 {
		t.Errorf("fit = (%g, %g), want (1e-4, 0.10)", slope, intercept)
	}
	if _, _, err := FitLinear(samples[:2]); err == nil {
		t.Error("fit with 2 samples: want error")
	}
	flat := []Sample{{LSK: 5, Noise: 1}, {LSK: 5, Noise: 2}, {LSK: 5, Noise: 3}}
	if _, _, err := FitLinear(flat); err == nil {
		t.Error("degenerate fit: want error")
	}
	falling := []Sample{{LSK: 1, Noise: 3}, {LSK: 2, Noise: 2}, {LSK: 3, Noise: 1}}
	if _, _, err := FitLinear(falling); err == nil {
		t.Error("negative slope: want error")
	}
}

func TestRankCorrelationExtremes(t *testing.T) {
	perfect := []Sample{{LSK: 1, Noise: 1}, {LSK: 2, Noise: 2}, {LSK: 3, Noise: 3}}
	if rho := RankCorrelation(perfect); math.Abs(rho-1) > 1e-12 {
		t.Errorf("perfect correlation rho = %g, want 1", rho)
	}
	inverted := []Sample{{LSK: 1, Noise: 3}, {LSK: 2, Noise: 2}, {LSK: 3, Noise: 1}}
	if rho := RankCorrelation(inverted); math.Abs(rho+1) > 1e-12 {
		t.Errorf("inverted correlation rho = %g, want -1", rho)
	}
}

func TestParsePatternErrors(t *testing.T) {
	for _, p := range []string{"", "AA", "AVVA", "AXV"} {
		if _, _, _, err := parsePattern(p); err == nil {
			t.Errorf("parsePattern(%q): want error", p)
		}
	}
	wires, layout, victim, err := parsePattern("ASVQ")
	if err != nil {
		t.Fatalf("parsePattern(ASVQ): %v", err)
	}
	if victim != 2 || len(wires) != 4 || len(layout.Tracks) != 4 {
		t.Errorf("parsePattern(ASVQ) = victim %d, %d wires, %d tracks", victim, len(wires), len(layout.Tracks))
	}
	if layout.Tracks[1].Kind != ShieldTrack {
		t.Error("S not parsed as shield")
	}
}

// TestLSKFidelity is the reproduction of the paper's §2.2 fidelity claim:
// across simulated SINO-style layouts, the model's LSK value ranks noise
// with high correlation, and the noise-vs-LSK relation fits a rising line.
// It runs dozens of transient simulations; skipped with -short.
func TestLSKFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("fidelity study runs ~60 transient simulations")
	}
	cfg := BuildConfig{Tech: tech.Default()}
	samples, err := CollectSamples(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rho := RankCorrelation(samples)
	if rho < 0.7 {
		t.Errorf("rank correlation between LSK and simulated noise = %.3f, want >= 0.7", rho)
	}
	slope, intercept, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	// The embedded default constants must match a fresh fit to within 20%,
	// otherwise table.go needs regeneration (go run ./cmd/lsktable -fit).
	if math.Abs(slope-defaultSlope) > 0.2*defaultSlope {
		t.Errorf("fitted slope %g drifted from embedded default %g; regenerate table.go", slope, defaultSlope)
	}
	if math.Abs(intercept-defaultIntercept) > 0.2*defaultIntercept {
		t.Errorf("fitted intercept %g drifted from embedded default %g; regenerate table.go", intercept, defaultIntercept)
	}
	// Noise must grow with length end-to-end within every pattern (the
	// observation the LSK model is built on). Local dips are allowed:
	// resonance and resistive attenuation make the curve non-monotone in
	// detail, but the shortest wire must be the quietest by a clear margin.
	byPattern := map[string][]Sample{}
	for _, s := range samples {
		byPattern[s.Pattern] = append(byPattern[s.Pattern], s)
	}
	for p, ss := range byPattern {
		var shortest, longest Sample
		shortest.Length = math.Inf(1)
		for _, s := range ss {
			if s.Length < shortest.Length {
				shortest = s
			}
			if s.Length > longest.Length {
				longest = s
			}
		}
		if longest.Noise <= 1.2*shortest.Noise {
			t.Errorf("pattern %s: noise at %g m (%g V) not clearly above noise at %g m (%g V)",
				p, longest.Length, longest.Noise, shortest.Length, shortest.Noise)
		}
	}
}

func TestBuildTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table build runs transient simulations")
	}
	tab, err := BuildTable(BuildConfig{
		Tech:     tech.Default(),
		Lengths:  []float64{1e-3, 2e-3, 3e-3},
		Patterns: []string{"AV", "AVA", "AAVAA", "ASVA", "AAAVAAA"},
		Entries:  25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 25 {
		t.Fatalf("entries = %d, want 25", tab.Len())
	}
	if tab.V[0] != 0.10 || math.Abs(tab.V[24]-0.20) > 1e-12 {
		t.Errorf("band [%g, %g], want [0.10, 0.20]", tab.V[0], tab.V[24])
	}
}

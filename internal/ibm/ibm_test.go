package ibm

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 6 {
		t.Fatalf("have %d profiles, want 6 (ibm01..ibm06)", len(ps))
	}
	// Net counts derived from Table 1, chip dims from Table 3.
	wantNets := map[string]int{
		"ibm01": 13062, "ibm02": 19290, "ibm03": 26100,
		"ibm04": 31327, "ibm05": 29645, "ibm06": 34397,
	}
	for _, p := range ps {
		if p.Nets != wantNets[p.Name] {
			t.Errorf("%s: %d nets, want %d", p.Name, p.Nets, wantNets[p.Name])
		}
		if p.ChipW <= 0 || p.ChipH <= 0 || p.Cols <= 0 || p.Rows <= 0 {
			t.Errorf("%s: malformed geometry", p.Name)
		}
		// Regions should be roughly 100 um.
		cw := float64(p.ChipW) / float64(p.Cols)
		ch := float64(p.ChipH) / float64(p.Rows)
		if cw < 80 || cw > 130 || ch < 80 || ch > 130 {
			t.Errorf("%s: region %gx%g um outside the ~100 um design point", p.Name, cw, ch)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName("ibm03"); err != nil {
		t.Errorf("ibm03 lookup failed: %v", err)
	}
	if _, err := ProfileByName("ibm99"); err == nil {
		t.Error("unknown circuit: want error")
	}
}

func TestGenerateBasics(t *testing.T) {
	p, _ := ProfileByName("ibm01")
	ckt, err := Generate(p, Options{Seed: 1, Scale: 16, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ckt.Nets.Nets), p.Nets/16; got != want {
		t.Errorf("scaled nets = %d, want %d", got, want)
	}
	if err := ckt.Nets.Validate(); err != nil {
		t.Errorf("netlist invalid: %v", err)
	}
	// Every pin inside the chip.
	for i := range ckt.Nets.Nets {
		for _, pin := range ckt.Nets.Nets[i].Pins {
			if pin.Loc.X < 0 || pin.Loc.X > p.ChipW || pin.Loc.Y < 0 || pin.Loc.Y > p.ChipH {
				t.Fatalf("net %d pin outside chip: %v", i, pin.Loc)
			}
		}
	}
	if ckt.Grid.HC < 4 || ckt.Grid.VC < 4 {
		t.Errorf("capacities too small: HC=%d VC=%d", ckt.Grid.HC, ckt.Grid.VC)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("ibm02")
	a, err := Generate(p, Options{Seed: 9, Scale: 32, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, Options{Seed: 9, Scale: 32, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nets.Nets) != len(b.Nets.Nets) {
		t.Fatal("net counts differ")
	}
	for i := range a.Nets.Nets {
		pa, pb := a.Nets.Nets[i].Pins, b.Nets.Nets[i].Pins
		if len(pa) != len(pb) {
			t.Fatalf("net %d pin counts differ", i)
		}
		for j := range pa {
			if pa[j].Loc != pb[j].Loc {
				t.Fatalf("net %d pin %d differs", i, j)
			}
		}
	}
	c, err := Generate(p, Options{Seed: 10, Scale: 32, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Nets.Nets {
		if a.Nets.Nets[i].Pins[0].Loc != c.Nets.Nets[i].Pins[0].Loc {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds generated identical placements")
	}
}

func TestGenerateValidation(t *testing.T) {
	p, _ := ProfileByName("ibm01")
	for _, rate := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := Generate(p, Options{Scale: 16, SensRate: rate}); err == nil {
			t.Errorf("rate %g: want error", rate)
		}
	}
	if _, err := Generate(p, Options{Scale: p.Nets + 1}); err == nil {
		t.Error("scale leaving no nets: want error")
	}
	if _, err := Generate(Profile{}, Options{}); err == nil {
		t.Error("empty profile: want error")
	}
}

// TestGenerateTakesOptionsAsGiven: no option value stands for a default.
// A scale below 1 is an error rather than full scale, and rate 0 is a
// circuit without sensitive pairs rather than the 30% one.
func TestGenerateTakesOptionsAsGiven(t *testing.T) {
	p, _ := ProfileByName("ibm01")
	for _, scale := range []int{0, -1} {
		if _, err := Generate(p, Options{Seed: 1, Scale: scale, SensRate: 0.3}); err == nil {
			t.Errorf("scale %d: want error", scale)
		}
	}
	sensitivePairs := func(rate float64) int {
		ckt, err := Generate(p, Options{Seed: 1, Scale: 32, SensRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		n, sens := len(ckt.Nets.Nets), ckt.Nets.Sensitivity
		count := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if sens.Sensitive(i, j) {
					count++
				}
			}
		}
		if got := sens.Rate(0); got != rate {
			t.Errorf("rate %g: Sensitivity.Rate = %g", rate, got)
		}
		return count
	}
	if n := sensitivePairs(0); n != 0 {
		t.Errorf("rate 0: %d sensitive pairs, want none", n)
	}
	if n := sensitivePairs(0.3); n == 0 {
		t.Error("rate 0.3: no sensitive pair, so rate 0 cannot be told from it")
	}
}

func TestPinStatistics(t *testing.T) {
	p, _ := ProfileByName("ibm01")
	ckt, err := Generate(p, Options{Seed: 3, Scale: 4, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	total, twoPin := 0, 0
	maxPins := 0
	for i := range ckt.Nets.Nets {
		n := len(ckt.Nets.Nets[i].Pins)
		total += n
		if n == 2 {
			twoPin++
		}
		if n > maxPins {
			maxPins = n
		}
	}
	nets := len(ckt.Nets.Nets)
	avg := float64(total) / float64(nets)
	if avg < 2.5 || avg > 4.5 {
		t.Errorf("average pins/net = %.2f, want ISPD'98-like 2.5-4.5", avg)
	}
	frac2 := float64(twoPin) / float64(nets)
	if frac2 < 0.45 || frac2 > 0.70 {
		t.Errorf("2-pin fraction = %.2f, want dominant", frac2)
	}
	if maxPins < 5 {
		t.Error("no multi-pin tail generated")
	}
}

func TestReflectStaysInRange(t *testing.T) {
	for _, v := range []geom.Micron{-5000, -1, 0, 1, 999, 1000, 1001, 7777} {
		r := reflect(v, 1000)
		if r < 0 || r > 1000 {
			t.Errorf("reflect(%v) = %v outside [0,1000]", v, r)
		}
	}
	if reflect(-3, 1000) != 3 || reflect(1002, 1000) != 998 {
		t.Error("reflection arithmetic wrong")
	}
}

func TestLaplaceSymmetricZeroMean(t *testing.T) {
	p, _ := ProfileByName("ibm01")
	ckt, err := Generate(p, Options{Seed: 2, Scale: 8, SensRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Net spreads should be finite and mostly local: median pin spread well
	// under the chip half-perimeter.
	var spreads []float64
	for i := range ckt.Nets.Nets {
		spreads = append(spreads, float64(ckt.Nets.Nets[i].PinSpread()))
	}
	mean := 0.0
	for _, s := range spreads {
		mean += s
	}
	mean /= float64(len(spreads))
	if math.IsNaN(mean) || mean <= 0 {
		t.Fatalf("degenerate spreads (mean %g)", mean)
	}
	if mean > float64(p.ChipW+p.ChipH)/2 {
		t.Errorf("nets too global: mean spread %g", mean)
	}
}

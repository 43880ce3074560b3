package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default technology invalid: %v", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []func(*Technology){
		func(c *Technology) { c.Vdd = 0 },
		func(c *Technology) { c.RiseTime = 0 },
		func(c *Technology) { c.DriverRes = 0 },
		func(c *Technology) { c.LoadCap = 0 },
		func(c *Technology) { c.WireWidth = 0 },
		func(c *Technology) { c.WireSpacing = -1 },
		func(c *Technology) { c.WireThickness = 0 },
		func(c *Technology) { c.DielectricK = 0.5 },
		func(c *Technology) { c.Resistivity = 0 },
		func(c *Technology) { c.ShieldViaRes = -1 },
	}
	for i, mutate := range mutations {
		c := Default()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

func TestParasiticOrdersOfMagnitude(t *testing.T) {
	c := Default()
	// Global copper wire: tens of ohms per mm.
	rmm := c.RPerMeter() / 1000
	if rmm < 5 || rmm > 100 {
		t.Errorf("R = %g ohm/mm outside plausible range", rmm)
	}
	// Total capacitance: order 100-300 fF/mm.
	cgmm := (c.CGroundPerMeter() + 2*c.CCouplePerMeter(c.WireSpacing)) * 1e-3
	if cgmm < 50e-15 || cgmm > 1e-12 {
		t.Errorf("C = %g F/mm outside plausible range", cgmm)
	}
	// Self inductance: around 1-3 nH/mm for on-chip wires.
	l := c.LSelf(1e-3)
	if l < 0.5e-9 || l > 5e-9 {
		t.Errorf("Lself(1mm) = %g H outside plausible range", l)
	}
}

func TestMutualDecreasesWithDistance(t *testing.T) {
	c := Default()
	l := 1e-3
	prev := math.Inf(1)
	for d := 1; d <= 64; d *= 2 {
		m := c.LMutual(float64(d)*c.Pitch(), l)
		if m >= prev {
			t.Fatalf("LMutual at %d pitches (%g) not below previous (%g)", d, m, prev)
		}
		if m < 0 {
			t.Fatalf("negative mutual at %d pitches", d)
		}
		prev = m
	}
}

func TestMutualBelowSelf(t *testing.T) {
	c := Default()
	f := func(dRaw, lRaw uint16) bool {
		d := (1 + float64(dRaw%1000)) * 1e-7 // 0.1-100 um
		l := (1 + float64(lRaw%1000)) * 1e-5 // 10 um - 10 mm
		return c.LMutual(d, l) <= c.LSelf(l)+1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCouplingCoefficientRange(t *testing.T) {
	c := Default()
	for d := 1; d < 100; d++ {
		k := c.CouplingCoefficient(float64(d)*c.Pitch(), 1e-3)
		if k < 0 || k >= 1 {
			t.Fatalf("k(%d pitches) = %g outside [0,1)", d, k)
		}
	}
	// Far wires are uncoupled.
	if k := c.CouplingCoefficient(10, 1e-3); k != 0 {
		t.Errorf("k at 10 m = %g, want 0", k)
	}
}

func TestMutualEdgeCases(t *testing.T) {
	c := Default()
	if m := c.LMutual(1e-6, 0); m != 0 {
		t.Errorf("LMutual with zero length = %g", m)
	}
	if m := c.LMutual(3e-3, 1e-3); m != 0 {
		t.Errorf("LMutual beyond 2l = %g, want 0", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("LMutual(d<=0): want panic")
		}
	}()
	c.LMutual(0, 1e-3)
}

func TestCCouplePanicsOnBadSep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CCouplePerMeter(0): want panic")
		}
	}()
	Default().CCouplePerMeter(0)
}

func TestPitchAndCycle(t *testing.T) {
	c := Default()
	if c.Pitch() != c.WireWidth+c.WireSpacing {
		t.Error("Pitch mismatch")
	}
}

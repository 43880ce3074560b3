package rlc

import (
	"testing"

	"repro/internal/tech"
)

func busOf(pattern string) []Wire {
	// pattern: 'A' aggressor, 'V' victim/quiet signal, 'S' shield, 'Q' quiet.
	ws := make([]Wire, len(pattern))
	for i, r := range pattern {
		switch r {
		case 'A':
			ws[i] = Wire{Kind: Signal, Switching: true}
		case 'V', 'Q':
			ws[i] = Wire{Kind: Signal}
		case 'S':
			ws[i] = Wire{Kind: Shield}
		default:
			panic("bad pattern rune")
		}
	}
	return ws
}

func victimIndex(pattern string) int {
	for i, r := range pattern {
		if r == 'V' {
			return i
		}
	}
	panic("no victim in pattern")
}

func simulate(t *testing.T, pattern string, lengthM float64) float64 {
	t.Helper()
	b := &Bus{Tech: tech.Default(), Wires: busOf(pattern), Length: lengthM}
	res, err := b.Simulate(victimIndex(pattern))
	if err != nil {
		t.Fatalf("Simulate(%q): %v", pattern, err)
	}
	return res.PeakNoise
}

func TestNoisePositiveAndBounded(t *testing.T) {
	n := simulate(t, "AV", 2e-3)
	if n <= 0 {
		t.Fatalf("noise %g, want > 0", n)
	}
	if n >= tech.Default().Vdd {
		t.Fatalf("noise %g exceeds Vdd", n)
	}
}

func TestMoreAggressorsMoreNoise(t *testing.T) {
	n1 := simulate(t, "AVQQ", 2e-3)
	n3 := simulate(t, "AVAA", 2e-3)
	if n3 <= n1 {
		t.Errorf("3 aggressors noise %g, want > 1 aggressor noise %g", n3, n1)
	}
}

func TestShieldInsertionReducesNoise(t *testing.T) {
	// SINO's shield-insertion move turns an adjacent aggressor/victim pair
	// into an aggressor-shield-victim arrangement.
	before := simulate(t, "AV", 2e-3)
	after := simulate(t, "ASV", 2e-3)
	if after >= 0.85*before {
		t.Errorf("shield insertion cut noise only from %g to %g; expected >= 15%%", before, after)
	}
}

func TestShieldsBeatQuietWires(t *testing.T) {
	// Replacing quiet signal neighbors with ground-tied shields must lower
	// the victim noise: shields carry induced return currents that quiet
	// wires (terminated by a driver at one end only) cannot.
	quiet := simulate(t, "AQQV", 3e-3)
	shielded := simulate(t, "ASSV", 3e-3)
	if shielded >= quiet {
		t.Errorf("shields %g, want < quiet wires %g", shielded, quiet)
	}
	quiet5 := simulate(t, "AQQQQQV", 3e-3)
	dense := simulate(t, "ASQSQSV", 3e-3)
	if dense >= 0.8*quiet5 {
		t.Errorf("dense shielding %g, want well below %g", dense, quiet5)
	}
}

// TestWideBusStability guards the positive-definiteness of the full coupling
// matrix: a wide bus with full-window mutual coupling must stay bounded.
func TestWideBusStability(t *testing.T) {
	pattern := "AAAAQQQVQQQAAAA"
	n := simulate(t, pattern, 3e-3)
	if n <= 0 || n >= tech.Default().Vdd {
		t.Fatalf("wide-bus noise %g out of physical range (0, Vdd)", n)
	}
}

func TestNoiseGrowsWithLength(t *testing.T) {
	short := simulate(t, "AV", 1e-3)
	long := simulate(t, "AV", 4e-3)
	if long <= short {
		t.Errorf("noise at 4mm %g, want > noise at 1mm %g", long, short)
	}
}

func TestDistanceReducesNoise(t *testing.T) {
	near := simulate(t, "AV", 2e-3)
	far := simulate(t, "AQQQV", 2e-3)
	if far >= near {
		t.Errorf("far-aggressor noise %g, want < adjacent %g", far, near)
	}
}

func TestValidation(t *testing.T) {
	tc := tech.Default()
	cases := []struct {
		name string
		bus  Bus
		vic  int
	}{
		{"nil tech", Bus{Wires: busOf("AV"), Length: 1e-3}, 1},
		{"no wires", Bus{Tech: tc, Length: 1e-3}, 0},
		{"bad length", Bus{Tech: tc, Wires: busOf("AV"), Length: 0}, 1},
		{"victim out of range", Bus{Tech: tc, Wires: busOf("AV"), Length: 1e-3}, 5},
		{"victim is shield", Bus{Tech: tc, Wires: busOf("AS"), Length: 1e-3}, 1},
		{"victim switching", Bus{Tech: tc, Wires: busOf("AA"), Length: 1e-3}, 1},
	}
	for _, c := range cases {
		if _, _, err := c.bus.Build(c.vic); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestDefaultSegmentsClamped(t *testing.T) {
	b := &Bus{Tech: tech.Default(), Wires: busOf("AV"), Length: 50e-3}
	if s := b.segments(); s != 24 {
		t.Errorf("segments for 50mm = %d, want clamp at 24", s)
	}
	b.Length = 0.1e-3
	if s := b.segments(); s != 4 {
		t.Errorf("segments for 0.1mm = %d, want clamp at 4", s)
	}
}

func TestCircuitSize(t *testing.T) {
	b := &Bus{Tech: tech.Default(), Wires: busOf("AVS"), Length: 0.5e-3} // clamps to 4 segments
	c, _, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// 5 wires (2 wall shields) × (5 taps + 4 mids) + 1 driver src node + gnd.
	wantNodes := 5*9 + 1 + 1
	if st.Nodes != wantNodes {
		t.Errorf("nodes = %d, want %d", st.Nodes, wantNodes)
	}
	if st.Inductors != 5*4 {
		t.Errorf("inductors = %d, want %d", st.Inductors, 5*4)
	}
	if st.VSources != 1 {
		t.Errorf("vsources = %d, want 1", st.VSources)
	}
}

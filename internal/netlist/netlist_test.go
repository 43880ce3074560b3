package netlist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestHashSensitivitySymmetricIrreflexive(t *testing.T) {
	h := NewHashSensitivity(42, 0.3)
	f := func(a, b uint16) bool {
		i, j := int(a)%1000, int(b)%1000
		if i == j {
			return !h.Sensitive(i, j)
		}
		return h.Sensitive(i, j) == h.Sensitive(j, i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHashSensitivityRateConcentrates(t *testing.T) {
	n := 4000
	for _, rate := range []float64{0.3, 0.5} {
		h := NewHashSensitivity(7, rate)
		for _, i := range []int{0, 17, 1234} {
			c := 0
			for j := 0; j < n; j++ {
				if h.Sensitive(i, j) {
					c++
				}
			}
			got := float64(c) / float64(n)
			if math.Abs(got-rate) > 0.05 {
				t.Errorf("rate %g: net %d realized %g", rate, i, got)
			}
		}
		if h.Rate(0) != rate {
			t.Errorf("Rate() = %g, want %g", h.Rate(0), rate)
		}
	}
}

func TestHashSensitivityDeterministic(t *testing.T) {
	a := NewHashSensitivity(1, 0.4)
	b := NewHashSensitivity(1, 0.4)
	c := NewHashSensitivity(2, 0.4)
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			if a.Sensitive(i, j) != b.Sensitive(i, j) {
				t.Fatal("same seed disagrees")
			}
			if a.Sensitive(i, j) == c.Sensitive(i, j) {
				same++
			} else {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical relations")
	}
}

func TestHashSensitivityBadRatePanics(t *testing.T) {
	for _, p := range []float64{1.5, -0.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %g: want panic", p)
				}
			}()
			NewHashSensitivity(1, p)
		}()
	}
}

func TestNetAccessors(t *testing.T) {
	n := Net{ID: 0, Pins: []Pin{
		{Loc: geom.MicronPoint{X: 0, Y: 0}},
		{Loc: geom.MicronPoint{X: 30, Y: 40}},
		{Loc: geom.MicronPoint{X: 10, Y: 5}},
	}}
	if n.Source().Loc != (geom.MicronPoint{X: 0, Y: 0}) {
		t.Error("Source is not pin 0")
	}
	if len(n.Sinks()) != 2 {
		t.Errorf("Sinks = %d", len(n.Sinks()))
	}
	if d := n.MaxSinkDistance(); d != 70 {
		t.Errorf("MaxSinkDistance = %v, want 70", d)
	}
	if s := n.PinSpread(); s != 70 {
		t.Errorf("PinSpread = %v, want 70", s)
	}
}

func TestNetPanicsWithoutPins(t *testing.T) {
	n := Net{ID: 3}
	for _, f := range []func(){
		func() { n.Source() },
		func() { n.Sinks() },
		func() { n.PinSpread() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestNetlistValidate(t *testing.T) {
	good := &Netlist{
		Nets: []Net{
			{ID: 0, Pins: []Pin{{}}},
			{ID: 1, Pins: []Pin{{}}},
		},
		Sensitivity: NewHashSensitivity(1, 0.3),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid netlist rejected: %v", err)
	}
	noSens := &Netlist{Nets: good.Nets}
	if err := noSens.Validate(); err == nil {
		t.Error("missing sensitivity: want error")
	}
	badIDs := &Netlist{
		Nets:        []Net{{ID: 5, Pins: []Pin{{}}}},
		Sensitivity: good.Sensitivity,
	}
	if err := badIDs.Validate(); err == nil {
		t.Error("non-contiguous IDs: want error")
	}
	noPins := &Netlist{
		Nets:        []Net{{ID: 0}},
		Sensitivity: good.Sensitivity,
	}
	if err := noPins.Validate(); err == nil {
		t.Error("pinless net: want error")
	}
}

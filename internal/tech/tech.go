// Package tech models the fabrication technology used by the router and the
// noise simulator: wire geometry, supply voltage, clock rate, and
// per-unit-length interconnect parasitics (resistance, ground and coupling
// capacitance, self and mutual inductance).
//
// The default technology follows the paper's setup: the ITRS 0.10 µm node
// with Vdd = 1.05 V and a 3 GHz clock, global-layer wires of uniform width,
// spacing and thickness, and uniform drivers and receivers for all global
// interconnects (paper §2.1–§2.2).
//
// Inductance formulas are the standard partial-inductance expressions for
// straight rectangular conductors (Grover/Ruehli):
//
//	Lself(l) = (µ0 l / 2π) · (ln(2l/(w+t)) + 0.5 + 0.2235(w+t)/l)
//	M(d, l)  = (µ0 l / 2π) · (ln(2l/d) − 1 + d/l)
//
// valid for l ≫ d, which holds for global wires (millimeter lengths, micron
// pitches). These replace the field-solver-extracted values the original
// authors used; see DESIGN.md §2 item 3.
package tech

import (
	"fmt"
	"math"
)

// Physical constants (SI units).
const (
	mu0  = 4e-7 * math.Pi // vacuum permeability, H/m
	eps0 = 8.854e-12      // vacuum permittivity, F/m
)

// Technology describes one fabrication process as used by global routing.
// All geometric fields are in meters; electrical fields in SI units.
type Technology struct {
	Name string

	// Supply and timing.
	Vdd       float64 // supply voltage, V
	RiseTime  float64 // aggressor driver rise time, s
	DriverRes float64 // uniform driver output resistance, Ω
	LoadCap   float64 // uniform receiver (sink) load capacitance, F

	// Global-layer wire geometry.
	WireWidth     float64 // w, m
	WireSpacing   float64 // s (edge-to-edge between adjacent tracks), m
	WireThickness float64 // t, m
	DielectricK   float64 // relative permittivity of the inter-layer dielectric

	// Material.
	Resistivity float64 // ρ of the wire metal, Ω·m

	// ShieldViaRes is the resistance of the via stack tying a shield wire to
	// the power/ground network at each end, Ω.
	ShieldViaRes float64
}

// Default returns the ITRS 0.10 µm global-layer technology used throughout
// the paper's experiments (3 GHz clock, Vdd = 1.05 V).
//
// Wire geometry follows ITRS'99 global-wire projections for the 0.10 µm node:
// 0.8 µm wide, 0.8 µm spaced, 1.2 µm thick copper with a low-k (k≈2.7)
// dielectric (global layers use fat wires — at 0.5 µm width the series
// resistance attenuates far-end noise so strongly that the paper's
// noise-linear-in-length observation no longer holds). Driver resistance and
// load capacitance are sized for a large global-line repeater (≈30 Ω, 30 fF).
func Default() *Technology {
	return &Technology{
		Name:          "ITRS-0.10um",
		Vdd:           1.05,
		RiseTime:      60e-12, // ~18% of the 333 ps cycle, a typical global-driver edge
		DriverRes:     30,
		LoadCap:       30e-15,
		WireWidth:     0.8e-6,
		WireSpacing:   0.8e-6,
		WireThickness: 1.2e-6,
		DielectricK:   2.7,
		Resistivity:   2.2e-8, // Cu with barrier
		ShieldViaRes:  1.0,
	}
}

// Validate reports the first invalid parameter, or nil if the technology is
// usable.
func (t *Technology) Validate() error {
	switch {
	case t.Vdd <= 0:
		return fmt.Errorf("tech %q: Vdd must be positive, got %g", t.Name, t.Vdd)
	case t.RiseTime <= 0:
		return fmt.Errorf("tech %q: RiseTime must be positive, got %g", t.Name, t.RiseTime)
	case t.DriverRes <= 0:
		return fmt.Errorf("tech %q: DriverRes must be positive, got %g", t.Name, t.DriverRes)
	case t.LoadCap <= 0:
		return fmt.Errorf("tech %q: LoadCap must be positive, got %g", t.Name, t.LoadCap)
	case t.WireWidth <= 0 || t.WireSpacing <= 0 || t.WireThickness <= 0:
		return fmt.Errorf("tech %q: wire geometry must be positive (w=%g s=%g t=%g)",
			t.Name, t.WireWidth, t.WireSpacing, t.WireThickness)
	case t.DielectricK < 1:
		return fmt.Errorf("tech %q: DielectricK must be >= 1, got %g", t.Name, t.DielectricK)
	case t.Resistivity <= 0:
		return fmt.Errorf("tech %q: Resistivity must be positive, got %g", t.Name, t.Resistivity)
	case t.ShieldViaRes < 0:
		return fmt.Errorf("tech %q: ShieldViaRes must be non-negative, got %g", t.Name, t.ShieldViaRes)
	}
	return nil
}

// Pitch returns the track pitch (center-to-center distance between adjacent
// tracks) in meters.
func (t *Technology) Pitch() float64 { return t.WireWidth + t.WireSpacing }

// RPerMeter returns the wire series resistance per meter, Ω/m.
func (t *Technology) RPerMeter() float64 {
	return t.Resistivity / (t.WireWidth * t.WireThickness)
}

// CGroundPerMeter returns the wire capacitance to the ground planes above and
// below per meter, F/m. It uses a parallel-plate term for the bottom face
// plus a fringe allowance of one plate-width per side, a standard closed-form
// approximation adequate for table construction.
func (t *Technology) CGroundPerMeter() float64 {
	// Distance to the nearest return plane: take one wire thickness as the
	// inter-layer dielectric height, a common global-layer assumption.
	h := t.WireThickness
	plate := eps0 * t.DielectricK * t.WireWidth / h
	fringe := eps0 * t.DielectricK * 1.06 // fringe per side, empirical constant
	return plate + 2*fringe
}

// CCouplePerMeter returns the sidewall coupling capacitance per meter
// between two parallel wires whose edge-to-edge separation is sep meters.
// The parallel-plate term uses the facing sidewall area (thickness/sep) and
// decays with separation; separation must be positive.
func (t *Technology) CCouplePerMeter(sep float64) float64 {
	if sep <= 0 {
		panic(fmt.Sprintf("tech: coupling separation must be positive, got %g", sep))
	}
	return eps0 * t.DielectricK * t.WireThickness / sep
}

// LSelf returns the partial self-inductance in henries of a straight wire of
// length l meters with this technology's cross-section.
func (t *Technology) LSelf(l float64) float64 {
	if l <= 0 {
		return 0
	}
	wt := t.WireWidth + t.WireThickness
	return mu0 * l / (2 * math.Pi) * (math.Log(2*l/wt) + 0.5 + 0.2235*wt/l)
}

// LMutual returns the partial mutual inductance in henries between two
// parallel wires of length l meters at center-to-center distance d meters.
// For d >= 2l the filament approximation has decayed to a negligible value
// and 0 is returned; for d <= 0 the function panics. The result is clamped
// to the self-inductance: the filament formula overshoots it at separations
// below the conductor cross-section, where real wires would overlap.
func (t *Technology) LMutual(d, l float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("tech: mutual-inductance distance must be positive, got %g", d))
	}
	if l <= 0 || d >= 2*l {
		return 0
	}
	m := mu0 * l / (2 * math.Pi) * (math.Log(2*l/d) - 1 + d/l)
	if m < 0 {
		return 0
	}
	if ls := t.LSelf(l); m > ls {
		return ls
	}
	return m
}

// CouplingCoefficient returns the dimensionless inductive coupling
// coefficient k = M / sqrt(L1·L2) between two parallel wires of length l at
// center-to-center distance d, clamped to [0, 1).
func (t *Technology) CouplingCoefficient(d, l float64) float64 {
	ls := t.LSelf(l)
	if ls <= 0 {
		return 0
	}
	k := t.LMutual(d, l) / ls
	if k < 0 {
		return 0
	}
	if k >= 1 {
		k = 0.999999
	}
	return k
}

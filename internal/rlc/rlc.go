// Package rlc builds transient-analysis circuits for buses of parallel
// on-chip wires — the layout produced by SINO inside one routing region — and
// measures RLC crosstalk noise on a victim wire.
//
// Each wire becomes a ladder of lumped RLC π-segments: series resistance and
// (mutually coupled) partial inductance per segment, grounded capacitance at
// every node, and sidewall coupling capacitance to neighboring tracks.
// Shield wires are tied to ground through vias along their length, and a
// wall shield bounds each side of the bus: the pre-routed P/G wires around
// every routing region (paper §2.1). Switching wires are driven by a
// resistive driver with a rising ramp; quiet wires (including the victim)
// are held low through the same driver resistance. Every signal wire sees
// the technology's load capacitance at its sink.
//
// This package is the stand-in for SPICE in the paper's experimental flow
// (see DESIGN.md §2, substitution 1).
package rlc

import (
	"fmt"
	"math"

	"repro/internal/mna"
	"repro/internal/tech"
)

// WireKind distinguishes signal wires from shields.
type WireKind int

// Wire kinds.
const (
	Signal WireKind = iota // a routed net segment
	Shield                 // a ground-tied shield track
)

// Wire is one track of the bus, in layout order.
type Wire struct {
	Kind      WireKind
	Switching bool // drives a rising ramp during the simulation (aggressor)
}

// Bus describes the coupled-line structure to simulate, between the two
// wall shields of its routing region.
type Bus struct {
	Tech   *tech.Technology
	Wires  []Wire  // tracks in geometric order, adjacent tracks one pitch apart
	Length float64 // wire length, meters
}

// NoiseResult reports the outcome of one noise simulation.
type NoiseResult struct {
	PeakNoise float64 // max |v| observed at the victim sink, volts
	PeakTime  float64 // time of the peak, seconds
	Raw       *mna.Result
}

// segments returns the number of lumped segments per wire: one per
// quarter millimeter, clamped to [4, 24] — enough to resolve inductive
// ringing at 3 GHz-class edges without inflating the matrix.
func (b *Bus) segments() int {
	return min(max(int(math.Ceil(b.Length/0.25e-3)), 4), 24)
}

// wallShielded returns the track list with the region's wall shield on
// each side; caller wire i is track i+1.
func (b *Bus) wallShielded() []Wire {
	ws := make([]Wire, 0, len(b.Wires)+2)
	ws = append(ws, Wire{Kind: Shield})
	ws = append(ws, b.Wires...)
	return append(ws, Wire{Kind: Shield})
}

// Build assembles the MNA circuit and returns it together with the victim's
// sink node (the probe point). victim indexes b.Wires.
func (b *Bus) Build(victim int) (*mna.Circuit, mna.Node, error) {
	if err := b.validate(victim); err != nil {
		return nil, 0, err
	}
	t := b.Tech
	wires := b.wallShielded()
	vIdx := victim + 1
	nSeg := b.segments()
	lSeg := b.Length / float64(nSeg)

	c := mna.NewCircuit()

	// Per-wire node ladders. nodes[w][k] is the k-th tap of wire w
	// (k = 0..nSeg); mids[w][k] is the node between the series R and L of
	// segment k.
	nodes := make([][]mna.Node, len(wires))
	mids := make([][]mna.Node, len(wires))
	inds := make([][]mna.InductorID, len(wires))
	for w := range wires {
		nodes[w] = make([]mna.Node, nSeg+1)
		mids[w] = make([]mna.Node, nSeg)
		inds[w] = make([]mna.InductorID, nSeg)
		for k := range nodes[w] {
			nodes[w][k] = c.NewNode()
		}
		for k := range mids[w] {
			mids[w][k] = c.NewNode()
		}
	}

	rSeg := t.RPerMeter() * lSeg
	lSelf := t.LSelf(lSeg)
	cgNode := t.CGroundPerMeter() * lSeg
	pitch := t.Pitch()

	for w := range wires {
		for k := 0; k < nSeg; k++ {
			c.Resistor(nodes[w][k], mids[w][k], rSeg)
			inds[w][k] = c.Inductor(mids[w][k], nodes[w][k+1], lSelf)
		}
		// Ground capacitance: half segments at the ends.
		for k := 0; k <= nSeg; k++ {
			cg := cgNode
			if k == 0 || k == nSeg {
				cg /= 2
			}
			c.Capacitor(nodes[w][k], mna.Ground, cg)
		}
	}

	// Inter-wire coupling. Coupling capacitance only matters between
	// adjacent tracks (farther tracks are electrostatically screened), but
	// mutual inductance is long-range — the paper's core motivation — so it
	// is stamped between every pair of wires. Truncating the inductive
	// coupling to a window is numerically unsafe: a truncated coupling
	// matrix with the slowly decaying logarithmic profile of on-chip wires
	// is not positive definite, and the transient integration diverges.
	for wa := range wires {
		for wb := wa + 1; wb < len(wires); wb++ {
			d := float64(wb-wa) * pitch
			if wb-wa == 1 {
				ccNode := t.CCouplePerMeter(t.WireSpacing) * lSeg
				for k := 0; k <= nSeg; k++ {
					cc := ccNode
					if k == 0 || k == nSeg {
						cc /= 2
					}
					c.Capacitor(nodes[wa][k], nodes[wb][k], cc)
				}
			}
			kc := t.CouplingCoefficient(d, lSeg)
			if kc > 1e-4 {
				for k := 0; k < nSeg; k++ {
					c.Mutual(inds[wa][k], inds[wb][k], kc)
				}
			}
		}
	}

	// Terminations.
	ramp := mna.Ramp{V0: 0, V1: t.Vdd, Start: 0, Rise: t.RiseTime}
	for w, wire := range wires {
		near, far := nodes[w][0], nodes[w][nSeg]
		switch wire.Kind {
		case Shield:
			// Shields tap the P/G network along their length ("add vias
			// between shields and P/G networks", paper §2.1), not only at
			// the ends — this is what makes them good return paths.
			via := t.ShieldViaRes
			if via <= 0 {
				via = 1e-3
			}
			for k := 0; k <= nSeg; k++ {
				c.Resistor(nodes[w][k], mna.Ground, via)
			}
		case Signal:
			if wire.Switching {
				src := c.NewNode()
				c.VSource(src, mna.Ground, ramp)
				c.Resistor(src, near, t.DriverRes)
			} else {
				c.Resistor(near, mna.Ground, t.DriverRes)
			}
			c.Capacitor(far, mna.Ground, t.LoadCap)
		}
	}

	return c, nodes[vIdx][nSeg], nil
}

func (b *Bus) validate(victim int) error {
	if b.Tech == nil {
		return fmt.Errorf("rlc: nil technology")
	}
	if err := b.Tech.Validate(); err != nil {
		return fmt.Errorf("rlc: %w", err)
	}
	if len(b.Wires) == 0 {
		return fmt.Errorf("rlc: bus has no wires")
	}
	if b.Length <= 0 {
		return fmt.Errorf("rlc: wire length must be positive, got %g", b.Length)
	}
	if victim < 0 || victim >= len(b.Wires) {
		return fmt.Errorf("rlc: victim index %d out of range [0,%d)", victim, len(b.Wires))
	}
	if b.Wires[victim].Kind != Signal {
		return fmt.Errorf("rlc: victim wire %d is a shield", victim)
	}
	if b.Wires[victim].Switching {
		return fmt.Errorf("rlc: victim wire %d is switching; noise is measured on quiet wires", victim)
	}
	return nil
}

// Simulate builds the circuit and runs a transient long enough to capture
// the first reflections of the aggressor edge, returning the peak noise at
// the victim's sink.
func (b *Bus) Simulate(victim int) (*NoiseResult, error) {
	c, probe, err := b.Build(victim)
	if err != nil {
		return nil, err
	}
	t := b.Tech
	// Time window: the driver edge plus several line flight times plus RC
	// settling. Flight time at ~half the speed of light in the dielectric.
	vProp := 3e8 / math.Sqrt(t.DielectricK)
	tof := b.Length / vProp
	total := 4*t.RiseTime + 10*tof + 20e-12
	h := t.RiseTime / 20
	steps := int(math.Ceil(total / h))
	if steps < 100 {
		steps = 100
	}
	if steps > 4000 {
		steps = 4000
	}
	res, err := c.Transient(h, steps, probe)
	if err != nil {
		return nil, fmt.Errorf("rlc: simulate: %w", err)
	}
	peak, at := res.PeakAbs(0)
	return &NoiseResult{PeakNoise: peak, PeakTime: at, Raw: res}, nil
}

// Package mna is a compact circuit simulator based on Modified Nodal
// Analysis, supporting exactly the element set needed to reproduce the
// paper's SPICE experiments: resistors, grounded and coupling capacitors,
// inductors with mutual coupling, and independent voltage sources with
// arbitrary waveforms. Transient analysis uses the trapezoidal rule
// with a fixed timestep, so the system matrix is factored once per run.
//
// It replaces the SPICE dependency of Ma & He (DAC'02) §2.2, where the
// LSK↔noise-voltage table is built from transient simulations of SINO
// layouts; see DESIGN.md.
package mna

import (
	"fmt"
	"math"
)

// Node identifies a circuit node. Ground is the predeclared node 0.
type Node int

// Ground is the reference node; its voltage is identically zero.
const Ground Node = 0

type resistor struct {
	a, b Node
	g    float64 // conductance
}

type capacitor struct {
	a, b Node
	c    float64
}

type inductor struct {
	a, b Node
	l    float64
	idx  int // branch-current unknown index (assigned at build)
}

type mutual struct {
	i, j int // indices into inductors
	m    float64
}

type vsource struct {
	a, b Node
	w    Waveform
	idx  int
}

// Circuit is a netlist under construction. The zero value is not usable; use
// NewCircuit.
type Circuit struct {
	nodes     int // count including ground
	resistors []resistor
	caps      []capacitor
	inductors []inductor
	mutuals   []mutual
	vsrcs     []vsource
}

// NewCircuit returns an empty circuit containing only the ground node.
func NewCircuit() *Circuit {
	return &Circuit{nodes: 1}
}

// NewNode allocates and returns a fresh node.
func (c *Circuit) NewNode() Node {
	n := Node(c.nodes)
	c.nodes++
	return n
}

func (c *Circuit) checkNode(n Node, elem string) {
	if n < 0 || int(n) >= c.nodes {
		panic(fmt.Sprintf("mna: %s references unknown node %d (have %d nodes)", elem, n, c.nodes))
	}
}

// Resistor connects a resistor of r ohms between a and b. r must be positive.
func (c *Circuit) Resistor(a, b Node, r float64) {
	c.checkNode(a, "resistor")
	c.checkNode(b, "resistor")
	if r <= 0 {
		panic(fmt.Sprintf("mna: resistance must be positive, got %g", r))
	}
	c.resistors = append(c.resistors, resistor{a, b, 1 / r})
}

// Capacitor connects a capacitor of f farads between a and b (either may be
// Ground). f must be positive.
func (c *Circuit) Capacitor(a, b Node, f float64) {
	c.checkNode(a, "capacitor")
	c.checkNode(b, "capacitor")
	if f <= 0 {
		panic(fmt.Sprintf("mna: capacitance must be positive, got %g", f))
	}
	c.caps = append(c.caps, capacitor{a, b, f})
}

// InductorID identifies an inductor for mutual coupling.
type InductorID int

// Inductor connects an inductor of h henries between a and b and returns its
// identifier for use with Mutual. h must be positive.
func (c *Circuit) Inductor(a, b Node, h float64) InductorID {
	c.checkNode(a, "inductor")
	c.checkNode(b, "inductor")
	if h <= 0 {
		panic(fmt.Sprintf("mna: inductance must be positive, got %g", h))
	}
	c.inductors = append(c.inductors, inductor{a: a, b: b, l: h})
	return InductorID(len(c.inductors) - 1)
}

// Mutual couples inductors p and q with coupling coefficient k in (-1, 1).
// The mutual inductance is M = k·sqrt(Lp·Lq).
func (c *Circuit) Mutual(p, q InductorID, k float64) {
	if p == q {
		panic("mna: cannot couple an inductor to itself")
	}
	if int(p) < 0 || int(p) >= len(c.inductors) || int(q) < 0 || int(q) >= len(c.inductors) {
		panic(fmt.Sprintf("mna: mutual references unknown inductor (%d,%d)", p, q))
	}
	if k <= -1 || k >= 1 {
		panic(fmt.Sprintf("mna: coupling coefficient must lie in (-1,1), got %g", k))
	}
	if k == 0 {
		return
	}
	m := k * math.Sqrt(c.inductors[p].l*c.inductors[q].l)
	c.mutuals = append(c.mutuals, mutual{int(p), int(q), m})
}

// VSource connects an independent voltage source between a (+) and b (−)
// driving waveform w.
func (c *Circuit) VSource(a, b Node, w Waveform) {
	c.checkNode(a, "vsource")
	c.checkNode(b, "vsource")
	if w == nil {
		panic("mna: nil waveform")
	}
	c.vsrcs = append(c.vsrcs, vsource{a: a, b: b, w: w})
}

// Stats summarizes circuit size, for logging and tests.
type Stats struct {
	Nodes      int
	Resistors  int
	Capacitors int
	Inductors  int
	Mutuals    int
	VSources   int
}

// Stats returns element counts.
func (c *Circuit) Stats() Stats {
	return Stats{
		Nodes:      c.nodes,
		Resistors:  len(c.resistors),
		Capacitors: len(c.caps),
		Inductors:  len(c.inductors),
		Mutuals:    len(c.mutuals),
		VSources:   len(c.vsrcs),
	}
}

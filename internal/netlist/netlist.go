// Package netlist holds the signal nets of a circuit: pins with physical
// placements, and the pairwise sensitivity relation that defines aggressors
// and victims (paper §2.1).
package netlist

import (
	"fmt"

	"repro/internal/geom"
)

// Pin is a net terminal at a placed location.
type Pin struct {
	Loc geom.MicronPoint
}

// Net is a signal net. Pins[0] is the source (driver); the remaining pins
// are sinks, matching the paper's (pi0, pi1, ...) convention.
type Net struct {
	ID   int
	Name string
	Pins []Pin
}

// Source returns the driver pin.
func (n *Net) Source() Pin {
	if len(n.Pins) == 0 {
		panic(fmt.Sprintf("netlist: net %d has no pins", n.ID))
	}
	return n.Pins[0]
}

// Sinks returns the sink pins (may be empty for degenerate nets).
func (n *Net) Sinks() []Pin {
	if len(n.Pins) == 0 {
		panic(fmt.Sprintf("netlist: net %d has no pins", n.ID))
	}
	return n.Pins[1:]
}

// MaxSinkDistance returns the largest source→sink Manhattan distance, the
// Le,ij bound used by uniform crosstalk budgeting.
func (n *Net) MaxSinkDistance() geom.Micron {
	src := n.Source().Loc
	var max geom.Micron
	for _, s := range n.Sinks() {
		if d := src.Manhattan(s.Loc); d > max {
			max = d
		}
	}
	return max
}

// PinSpread returns the half-perimeter of the pins' bounding box in microns
// — the natural stub length for a net whose pins share one routing region.
func (n *Net) PinSpread() geom.Micron {
	if len(n.Pins) == 0 {
		panic(fmt.Sprintf("netlist: net %d has no pins", n.ID))
	}
	minX, maxX := n.Pins[0].Loc.X, n.Pins[0].Loc.X
	minY, maxY := n.Pins[0].Loc.Y, n.Pins[0].Loc.Y
	for _, p := range n.Pins[1:] {
		if p.Loc.X < minX {
			minX = p.Loc.X
		}
		if p.Loc.X > maxX {
			maxX = p.Loc.X
		}
		if p.Loc.Y < minY {
			minY = p.Loc.Y
		}
		if p.Loc.Y > maxY {
			maxY = p.Loc.Y
		}
	}
	return (maxX - minX) + (maxY - minY)
}

// Netlist is a set of signal nets with a sensitivity relation.
type Netlist struct {
	Nets        []Net
	Sensitivity Sensitivity
}

// Validate checks structural invariants: contiguous IDs, at least one pin
// per net, and a sensitivity model.
func (nl *Netlist) Validate() error {
	if nl.Sensitivity == nil {
		return fmt.Errorf("netlist: missing sensitivity model")
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if n.ID != i {
			return fmt.Errorf("netlist: net at position %d has ID %d; IDs must be contiguous", i, n.ID)
		}
		if len(n.Pins) == 0 {
			return fmt.Errorf("netlist: net %d has no pins", i)
		}
	}
	return nil
}

// Sensitivity answers whether two nets are sensitive to each other — i.e.
// switching on one can make the other malfunction — and what fraction of all
// nets a given net is sensitive to (the paper's sensitivity rate S_i).
type Sensitivity interface {
	Sensitive(i, j int) bool
	Rate(i int) float64
}

// HashSensitivity implements the paper's random sensitivity assignment
// ("a signal net is sensitive to random 30% of other signal nets") without
// storing the O(N²) relation: a pair (i, j) is sensitive iff a deterministic
// hash of (Seed, min, max) falls below Rate. The relation is symmetric,
// reproducible, and O(1) per query.
type HashSensitivity struct {
	Seed uint64
	P    float64 // pairwise sensitivity probability in [0, 1]
}

// NewHashSensitivity returns a sensitivity model with pairwise probability p.
func NewHashSensitivity(seed uint64, p float64) *HashSensitivity {
	if !(p >= 0 && p <= 1) { // NaN fails too
		panic(fmt.Sprintf("netlist: sensitivity probability %g outside [0,1]", p))
	}
	return &HashSensitivity{Seed: seed, P: p}
}

// Sensitive reports whether nets i and j are mutually sensitive.
func (h *HashSensitivity) Sensitive(i, j int) bool {
	if i == j {
		return false
	}
	if i > j {
		i, j = j, i
	}
	x := h.Seed
	x ^= uint64(i) * 0x9e3779b97f4a7c15
	x = splitmix(x)
	x ^= uint64(j) * 0xbf58476d1ce4e5b9
	x = splitmix(x)
	return float64(x>>11)/(1<<53) < h.P
}

// Rate returns S_i, the expected fraction of nets any net is sensitive to.
// For the uniform random model this is the pairwise probability.
func (h *HashSensitivity) Rate(int) float64 { return h.P }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

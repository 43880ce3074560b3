// Package budget implements the paper's crosstalk budgeting (§3.1): the
// sink noise constraint (a voltage) is mapped to an LSK bound through the
// lookup table, then partitioned uniformly over the net's length to give
// every net segment an inductive coupling bound Kth.
//
// Phase I budgets use the source→sink Manhattan distance as the length
// estimate ("we use Le,ij ... to approximate the wire length in the final
// routing solution"); segments shared by several sink paths take the
// minimum bound. Detours make these budgets optimistic — the violations
// they cause are what Phase III exists to clean up. A tree-aware variant
// budgets against actual routed lengths, used by the iSINO baseline, which
// has no refinement phase behind it.
package budget

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/keff"
	"repro/internal/netlist"
)

// Budgeter converts sink noise constraints into per-segment K bounds.
type Budgeter struct {
	Table *keff.Table

	// VThreshold is the uniform sink constraint; the paper uses 0.15 V
	// (≈15% of Vdd).
	VThreshold float64

	// KFloor clamps bounds from below: no layout can push K_i under the
	// dense-shielding floor, so demanding less is unsatisfiable. Zero
	// selects 0.05.
	KFloor float64

	// KCeil clamps bounds from above to keep Formula (3) inputs in its
	// fitted range. Zero selects 4.
	KCeil float64
}

// Validate reports the first bad field.
func (b *Budgeter) Validate() error {
	if b.Table == nil {
		return fmt.Errorf("budget: nil LSK table")
	}
	if v := b.VThreshold; !(v > 0) || math.IsInf(v, 1) { // NaN fails v > 0
		return fmt.Errorf("budget: voltage threshold %g is not finite and positive", b.VThreshold)
	}
	return nil
}

func (b *Budgeter) kFloor() float64 {
	if b.KFloor > 0 {
		return b.KFloor
	}
	return 0.05
}

func (b *Budgeter) kCeil() float64 {
	if b.KCeil > 0 {
		return b.KCeil
	}
	return 4
}

// LSKBudget returns the LSK value whose predicted noise equals the
// threshold — every net's budget, since the sink constraint is uniform.
func (b *Budgeter) LSKBudget() float64 {
	return b.Table.LSKFor(b.VThreshold)
}

// Clamp bounds a K value into the achievable [floor, ceiling] band. Exposed
// for budgeting policies (congestion-weighted redistribution) that compute
// bounds directly.
func (b *Budgeter) Clamp(k float64) float64 {
	if k < b.kFloor() {
		return b.kFloor()
	}
	if k > b.kCeil() {
		return b.kCeil()
	}
	return k
}

// UniformNet returns the Phase I bound for every segment of the net: the
// LSK budget divided by the largest source→sink Manhattan distance — the
// "minimum of those bounds determined for individual paths", since segments
// near the source are shared by all sink paths.
func (b *Budgeter) UniformNet(n *netlist.Net) float64 {
	le := n.MaxSinkDistance()
	if le <= 0 {
		// All pins in one region neighborhood: essentially unconstrained.
		return b.kCeil()
	}
	return b.Clamp(b.LSKBudget() / float64(le))
}

// ForLength returns the bound for a net segment when the relevant path
// length is already known (tree-aware budgeting and Phase III
// re-budgeting).
func (b *Budgeter) ForLength(lengthUM geom.Micron) float64 {
	if lengthUM <= 0 {
		return b.kCeil()
	}
	return b.Clamp(b.LSKBudget() / float64(lengthUM))
}

package keff_test

import (
	"fmt"

	"repro/internal/keff"
	"repro/internal/tech"
)

// ExampleModel_TotalCoupling computes a victim's total inductive coupling
// K_i in a small track stack, showing the effect of inserting a shield.
func ExampleModel_TotalCoupling() {
	m := keff.NewModel(tech.Default())
	everyone := keff.NewRelation(3) // nets 0, 1 and 2, each sensitive to the others
	everyone.Set(0, 1)
	everyone.Set(0, 2)
	everyone.Set(1, 2)

	bare := keff.Layout{Tracks: []keff.Track{
		keff.SignalOf(0), keff.SignalOf(1), keff.SignalOf(2),
	}}
	shielded := keff.Layout{Tracks: []keff.Track{
		keff.SignalOf(0), keff.ShieldOf(), keff.SignalOf(1), keff.ShieldOf(), keff.SignalOf(2),
	}}

	kBare := m.TotalCoupling(bare, 1, everyone)
	kShielded := m.TotalCoupling(shielded, 2, everyone)
	fmt.Printf("victim K without shields: %.2f\n", kBare)
	fmt.Printf("victim K with shields:    %.2f\n", kShielded)
	fmt.Println("shielding helps:", kShielded < kBare/4)
	// Output:
	// victim K without shields: 0.66
	// victim K with shields:    0.02
	// shielding helps: true
}

// ExampleTable shows LSK budgeting: the lookup table converts the 0.15 V
// sink constraint into an LSK budget, which uniform partitioning divides by
// the net length to obtain a per-segment coupling bound (paper §3.1).
func ExampleTable() {
	table := keff.DefaultTable()
	budget := table.LSKFor(0.15)
	const netLengthUM = 2000.0
	kth := budget / netLengthUM
	fmt.Printf("LSK budget at 0.15 V: %.0f um*K\n", budget)
	fmt.Printf("Kth for a 2 mm net:  %.2f\n", kth)
	// Output:
	// LSK budget at 0.15 V: 2516 um*K
	// Kth for a 2 mm net:  1.26
}

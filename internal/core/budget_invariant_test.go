package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/budget"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/keff"
	"repro/internal/sino"
)

// TestCongestionRedistributionPreservesTotals is the property test for the
// documented §5 budgeting invariant: redistributing a net's budget by
// congestion must keep Σ l_r·Kth_r at the uniform partition's level — even
// after the budgeter's floor/ceiling clamps individual terms — saturating
// at the achievable band edge only when every term pins there.
func TestCongestionRedistributionPreservesTotals(t *testing.T) {
	cases := []struct {
		name   string
		kFloor float64
		nNets  int
		seed   int64
	}{
		{"default-floor", 0, 90, 11},
		// A floor high enough that congested-region terms pin against it,
		// which is exactly where the pre-fix code leaked budget.
		{"high-floor", 0.35, 90, 12},
		// Extreme floor: most nets saturate, exercising the all-pinned exit.
		{"huge-floor", 0.9, 60, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := smallDesign(t, tc.nNets, 0.5, tc.seed)
			r, err := NewRunner(d, Params{CongestionBudgeting: true})
			if err != nil {
				t.Fatal(err)
			}
			r.budgeter.KFloor = tc.kFloor
			res, err := r.routeAll(context.Background(), true)
			if err != nil {
				t.Fatal(err)
			}
			st := r.buildState(res, budgetManhattan)

			total := func(net int) float64 {
				s := 0.0
				for _, term := range st.terms[net] {
					s += float64(term.inst.lens[term.seg]) * term.inst.segs[term.seg].Kth
				}
				return s
			}
			before := make([]float64, len(st.terms))
			for net := range st.terms {
				before[net] = total(net)
			}

			st.redistributeByCongestion()

			floor := r.budgeter.Clamp(0)
			ceil := r.budgeter.Clamp(math.Inf(1))
			pinnedNets, checked := 0, 0
			for net := range st.terms {
				terms := st.terms[net]
				if len(terms) < 2 {
					continue // untouched by redistribution
				}
				checked++
				var lo, hi float64
				netPinned := false
				for _, term := range terms {
					l := float64(term.inst.lens[term.seg])
					lo += l * floor
					hi += l * ceil
					k := term.inst.segs[term.seg].Kth
					if k < floor || k > ceil {
						t.Fatalf("net %d: redistributed Kth %g outside [%g, %g]", net, k, floor, ceil)
					}
					if k == floor || k == ceil {
						netPinned = true
					}
				}
				if netPinned {
					pinnedNets++
				}
				// The uniform per-term bounds are themselves clamped into
				// [floor, ceil], so the uniform total always lies inside the
				// achievable band; saturate anyway for robustness.
				want := math.Min(math.Max(before[net], lo), hi)
				got := total(net)
				if math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Errorf("net %d: Σ l·Kth = %.12g after redistribution, want %.12g (uniform %.12g, band [%.6g, %.6g])",
						net, got, want, before[net], lo, hi)
				}
			}
			if checked == 0 {
				t.Fatal("no multi-region nets; fixture too degenerate")
			}
			// The regression scenario: clamping pins individual terms, and
			// the remaining terms must absorb the difference (pre-fix, the
			// pinned residue silently leaked). Make sure the high-floor
			// fixtures actually exercise it.
			if tc.kFloor >= 0.35 && pinnedNets == 0 {
				t.Error("high floor pinned no term; fixture no longer exercises clamp renormalization")
			}
		})
	}
}

// TestRedistributionMixedPinning pins the narrow-band edge case: when the
// first proportional rescale pins one term at the ceiling and another at
// the floor simultaneously (reachable whenever KCeil < ~3·KFloor, since
// congestion weights phi span (0.5, 1.5]), a fixed-point rescale sees no
// free terms and gives up below the uniform total — but a larger scale
// unpins the floor term and preserves it exactly. The synthetic state
// reproduces that geometry: phi_A = 1.5 (full region), phi_B = 0.51, unit
// lengths, uniform total 5.628 inside the [3, 8] band, preserving scale
// s ≈ 3.192 (term A ceiling-pinned at 4, term B free at 1.628).
func TestRedistributionMixedPinning(t *testing.T) {
	g, err := grid.New(2, 2, 100, 100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	b := &budget.Budgeter{Table: keff.DefaultTable(), VThreshold: 0.15, KFloor: 1.5} // ceiling stays 4
	r := &Runner{design: &Design{Grid: g}, budgeter: b}

	instA := &regionInst{key: instKey{region: 0, horz: true},
		segs: make([]sino.Seg, 100), lens: make([]geom.Micron, 100)} // density 1.0 → phi 1.5
	instB := &regionInst{key: instKey{region: 1, horz: true},
		segs: make([]sino.Seg, 1), lens: make([]geom.Micron, 1)} // density 0.01 → phi 0.51
	instA.segs[0] = sino.Seg{Net: 0, Kth: 2.814}
	instB.segs[0] = sino.Seg{Net: 0, Kth: 2.814}
	instA.lens[0], instB.lens[0] = 1, 1
	st := &chipState{r: r, terms: [][]segTerm{{
		{inst: instA, seg: 0},
		{inst: instB, seg: 0},
	}}}

	st.redistributeByCongestion()

	kA, kB := instA.segs[0].Kth, instB.segs[0].Kth
	got := kA + kB // unit lengths
	if want := 5.628; math.Abs(got-want) > 1e-9 {
		t.Errorf("mixed-pin redistribution total = %.12g (terms %.6g + %.6g), want preserved %.12g",
			got, kA, kB, want)
	}
	if kA != 4 {
		t.Errorf("congested term = %g, want ceiling-pinned 4", kA)
	}
	if kB < 1.5 || kB > 4 {
		t.Errorf("free term %g escaped the clamp band", kB)
	}
}

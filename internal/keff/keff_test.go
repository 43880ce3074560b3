package keff

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tech"
)

func model() *Model { return NewModel(tech.Default()) }

// layoutOf builds a layout from a pattern: 'S' shield, any other rune a
// signal whose net id is its position.
func layoutOf(pattern string) []int {
	var l []int
	for i, r := range pattern {
		if r == 'S' {
			l = append(l, Shield)
		} else {
			l = append(l, i)
		}
	}
	return l
}

func allSensitive(a, b int) bool { return true }

func TestPairCouplingSymmetric(t *testing.T) {
	m := model()
	l := layoutOf("NNSNNQN")
	for i := range l {
		for j := range l {
			if i == j || l[i] == Shield || l[j] == Shield {
				continue
			}
			kij := m.PairCoupling(l, i, j)
			kji := m.PairCoupling(l, j, i)
			if math.Abs(kij-kji) > 1e-12 {
				t.Errorf("PairCoupling(%d,%d)=%g != PairCoupling(%d,%d)=%g", i, j, kij, j, i, kji)
			}
		}
	}
}

func TestPairCouplingInUnitRange(t *testing.T) {
	m := model()
	f := func(nTracks uint8, shieldMask uint16, a, b uint8) bool {
		n := 2 + int(nTracks%14)
		var l []int
		for i := 0; i < n; i++ {
			if shieldMask&(1<<uint(i%16)) != 0 && i%3 == 0 {
				l = append(l, Shield)
			} else {
				l = append(l, i)
			}
		}
		// Pick two distinct signal positions.
		var sig []int
		for i, tr := range l {
			if tr != Shield {
				sig = append(sig, i)
			}
		}
		if len(sig) < 2 {
			return true
		}
		i := sig[int(a)%len(sig)]
		j := sig[int(b)%len(sig)]
		if i == j {
			return true
		}
		k := m.PairCoupling(l, i, j)
		return k >= 0 && k < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCouplingDecaysWithDistance(t *testing.T) {
	m := model()
	l := layoutOf("NNNNNNNNNN")
	prev := math.Inf(1)
	for d := 1; d <= 5; d++ {
		k := m.PairCoupling(l, 0, d)
		if k >= prev {
			t.Errorf("K(0,%d)=%g not below K at distance %d (%g)", d, k, d-1, prev)
		}
		prev = k
	}
}

func TestShieldBetweenReducesCoupling(t *testing.T) {
	m := model()
	open := layoutOf("NQN")
	shielded := layoutOf("NSN")
	kOpen := m.PairCoupling(open, 0, 2)
	kShield := m.PairCoupling(shielded, 0, 2)
	if kShield >= 0.5*kOpen {
		t.Errorf("shield between: K=%g, want < half of unshielded %g", kShield, kOpen)
	}
}

func TestShieldBesideReducesCoupling(t *testing.T) {
	m := model()
	// Same pair distance; add a shield outside the victim.
	open := layoutOf("QNQNQQQQQQ")
	beside := layoutOf("SNQNQQQQQQ")
	kOpen := m.PairCoupling(open, 1, 3)
	kBeside := m.PairCoupling(beside, 1, 3)
	if kBeside >= kOpen {
		t.Errorf("shield beside victim: K=%g, want < %g", kBeside, kOpen)
	}
}

func TestDenseShieldingCollapsesCoupling(t *testing.T) {
	m := model()
	bare := layoutOf("NN")
	dense := layoutOf("SNSNS")
	kBare := m.PairCoupling(bare, 0, 1)
	kDense := m.PairCoupling(dense, 1, 3)
	if kDense >= 0.2*kBare {
		t.Errorf("densely shielded K=%g, want < 20%% of bare adjacent K=%g", kDense, kBare)
	}
}

func TestTotalCouplingSumsSensitiveOnly(t *testing.T) {
	m := model()
	l := layoutOf("NNNN")
	sens := func(a, b int) bool { return a == 0 || b == 0 } // only net 0 aggressive
	k0 := m.TotalCoupling(l, 0, relOf(l, sens))
	want := m.PairCoupling(l, 0, 1) + m.PairCoupling(l, 0, 2) + m.PairCoupling(l, 0, 3)
	if math.Abs(k0-want) > 1e-12 {
		t.Errorf("TotalCoupling = %g, want sum of pairs %g", k0, want)
	}
	// Track 1 is sensitive only to net 0.
	k1 := m.TotalCoupling(l, 1, relOf(l, sens))
	if want := m.PairCoupling(l, 1, 0); math.Abs(k1-want) > 1e-12 {
		t.Errorf("TotalCoupling(1) = %g, want %g", k1, want)
	}
}

func TestAllTotalsMatchesTotalCoupling(t *testing.T) {
	m := model()
	l := layoutOf("NNSNQNNSN")
	sens := func(a, b int) bool { return (a+b)%2 == 1 }
	all := m.AllTotals(l, relOf(l, sens))
	for i, tr := range l {
		if tr == Shield {
			if all[i] != 0 {
				t.Errorf("shield position %d has K=%g, want 0", i, all[i])
			}
			continue
		}
		want := m.TotalCoupling(l, i, relOf(l, sens))
		if math.Abs(all[i]-want) > 1e-9 {
			t.Errorf("AllTotals[%d]=%g, want %g", i, all[i], want)
		}
	}
}

func TestMoreAggressorsMoreTotalCoupling(t *testing.T) {
	m := model()
	l2 := layoutOf("NVN") // V = position 1
	l4 := layoutOf("NNVNN")
	k2 := m.TotalCoupling(l2, 1, relOf(l2, allSensitive))
	k4 := m.TotalCoupling(l4, 2, relOf(l4, allSensitive))
	if k4 <= k2 {
		t.Errorf("4 aggressors K=%g, want > 2 aggressors K=%g", k4, k2)
	}
}

func TestShieldTableSweep(t *testing.T) {
	m := model()
	l := layoutOf("SNNSQN")
	st := m.ShieldTableInto(l, nil)
	// Shield positions report their own neighbors excluding themselves;
	// they are never queried for coupling.
	want := [][2]int{{-1, 3}, {0, 3}, {0, 3}, {0, 6}, {3, 6}, {3, 6}}
	for i := range want {
		if st[i] != want[i] {
			t.Errorf("shieldTable[%d] = %v, want %v", i, st[i], want[i])
		}
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	m := model()
	l := layoutOf("NSN")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("same track", func() { m.PairCoupling(l, 0, 0) })
	mustPanic("out of range", func() { m.PairCoupling(l, 0, 9) })
	mustPanic("shield track", func() { m.PairCoupling(l, 0, 1) })
	mustPanic("total on shield", func() { m.TotalCoupling(l, 1, relOf(l, allSensitive)) })
}

func TestBackgroundReturnCapsCoupling(t *testing.T) {
	// In a wide unshielded stack, a pair near the middle couples through
	// the background power grid, not the distant walls: returning through
	// the walls must give at least the capped coupling, and the coupling
	// of far-apart pairs must collapse under the cap.
	wide := layoutOf(strings.Repeat("N", 60))
	m := model()
	walls := [2]int{-1, len(wide)}
	kCap := m.PairCoupling(wide, 29, 31)
	kFree := (&oracleModel{Tech: tech.Default()}).pairCouplingAt(29, 31, walls, walls)
	if kCap > kFree*1.01 {
		t.Errorf("background return increased near-pair coupling: %g > %g", kCap, kFree)
	}
	farCap := m.PairCoupling(wide, 5, 55)
	if farCap > 0.05 {
		t.Errorf("far pair coupling %g with background return, want near zero", farCap)
	}
}

func TestBackgroundReturnSaturatesTotals(t *testing.T) {
	// K_i must saturate as the stack grows — the property that keeps
	// violation rates stable across benchmark scales.
	m := model()
	l40, l200 := layoutOf(strings.Repeat("N", 41)), layoutOf(strings.Repeat("N", 201))
	k40 := m.TotalCoupling(l40, 20, relOf(l40, allSensitive))
	k200 := m.TotalCoupling(l200, 100, relOf(l200, allSensitive))
	if k200 > 1.35*k40 {
		t.Errorf("K_i grew from %g (40 tracks) to %g (200 tracks); background return should saturate it", k40, k200)
	}
}

// TestPairCutoff: TotalCoupling sums partners up to 48 tracks away (four
// background-return pitches) and no farther.
func TestPairCutoff(t *testing.T) {
	m := model()
	l := layoutOf(strings.Repeat("N", 50))
	only := func(j int) func(a, b int) bool { return func(a, b int) bool { return a == j || b == j } }
	if k := m.TotalCoupling(l, 0, relOf(l, only(48))); k == 0 {
		t.Error("partner 48 tracks away did not couple")
	}
	if k := m.TotalCoupling(l, 0, relOf(l, only(49))); k != 0 {
		t.Errorf("partner 49 tracks away coupled %g, want 0 beyond the cutoff", k)
	}
}

func TestMutualMemoConsistency(t *testing.T) {
	m := model()
	// The mirrored row against the direct formulas, on both sides of 0.
	v7 := m.at(7)
	v3 := m.at(3)
	tc := tech.Default()
	want3 := tc.LMutual(3*tc.Pitch(), 1e-3)
	want7 := tc.LMutual(7*tc.Pitch(), 1e-3)
	if math.Abs(v3-want3) > 1e-18 || math.Abs(v7-want7) > 1e-18 {
		t.Errorf("row mutuals diverge from formulas: got (%g,%g) want (%g,%g)", v3, v7, want3, want7)
	}
	if m.at(-3) != v3 {
		t.Error("mutual row not symmetric in sign")
	}
	if m.at(0) != tc.LSelf(1e-3) {
		t.Error("mutual row at 0 != LSelf")
	}
}

func TestCloneIsIndependentAndEquivalent(t *testing.T) {
	m := NewModel(tech.Default())
	l := denseLayout(16, 8)
	want := m.AllTotals(l, relOf(l, allSensitive))

	clone := m.Clone()
	if clone == m {
		t.Fatal("Clone returned its receiver")
	}
	got := clone.AllTotals(l, relOf(l, allSensitive))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("track %d: clone %g != original %g", i, got[i], want[i])
		}
	}
	// The clone holds its own tables, not views of the original's.
	clone.row[rowMid+3], clone.wires[0].leff = 0, 0
	if m.row[rowMid+3] == 0 || m.wires[0].leff == 0 {
		t.Error("writing the clone's tables changed the original's")
	}
}

// TestModelConcurrentUse races workers on one shared Model, started
// together on the same layouts: a Model is immutable after NewModel, so
// every worker's totals must be the serial run's bits (and the race
// detector must see no write).
func TestModelConcurrentUse(t *testing.T) {
	m := NewModel(tech.Default())
	layouts := [][]int{denseLayout(40, 10, 30), denseLayout(48), denseLayout(33, 0, 7, 8, 20), denseLayout(130, 64)}
	want := make([][]float64, len(layouts))
	rels := make([]*Relation, len(layouts))
	for li, l := range layouts {
		rels[li] = relOf(l, allSensitive)
		want[li] = m.AllTotals(l, rels[li])
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for rep := 0; rep < 20; rep++ {
				li := rep % len(layouts)
				got := m.AllTotals(layouts[li], rels[li])
				for i := range got {
					if got[i] != want[li][i] {
						errs <- "concurrent totals diverged"
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

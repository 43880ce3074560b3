package keff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// checkKeptRows selects a random stack's rows and then inserts shield
// after shield into it, requiring SelectTotalsInto and every
// KeptTotalsInto that follows to equal AllTotalsInto on the current
// stack bit for bit, and each pass to account for every in-cutoff
// sensitive pair once, evaluated or carried. Stacks hold 1–130 tracks,
// so pairs leave the cutoff as shields go in; their nets are distinct,
// drawn from a relation of one of the partnerSizes (a stack is all
// shields once they run out), and insertions go at either end, beside an
// existing shield or anywhere.
func checkKeptRows(t *testing.T, m *Model, seed int64, size, width, shieldRate, sensRate, inserts uint8) {
	n := partnerSizes[int(size)%len(partnerSizes)]
	rng := rand.New(rand.NewSource(seed))
	rel := NewRelation(n)
	p := float64(sensRate) / 255
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			rel.SetIf(a, b, rng.Float64() < p)
		}
	}
	pShield := float64(shieldRate) / 255
	nets := rng.Perm(n)
	tr := make([]int, 1+int(width)%130)
	for q := range tr {
		tr[q] = Shield
		if len(nets) > 0 && rng.Float64() >= pShield {
			tr[q], nets = nets[0], nets[1:]
		}
	}

	var rows PartnerRows
	shields := m.ShieldTableInto(tr, nil)
	out := make([]float64, len(tr))
	got := m.SelectTotalsInto(&rows, tr, shields, rel, out)
	matchAllTotals(t, m, tr, rel, out, "selection")
	if want := inCutoffPairs(tr, rel); got != want {
		t.Fatalf("selection of %v evaluated %d pairs, want %d", tr, got, want)
	}
	for step := 0; step <= int(inserts)%40; step++ {
		at := rng.Intn(len(tr) + 1)
		switch rng.Intn(4) {
		case 0:
			at = 0
		case 1:
			at = len(tr)
		case 2: // beside a shield, on either side
			var ss []int
			for q, v := range tr {
				if v == Shield {
					ss = append(ss, q, q+1)
				}
			}
			if len(ss) > 0 {
				at = ss[rng.Intn(len(ss))]
			}
		}
		tr = append(tr, 0)
		copy(tr[at+1:], tr[at:])
		tr[at] = Shield
		shields = m.ShieldTableInto(tr, shields)
		out = append(out, 0)
		evaluated, kept := m.KeptTotalsInto(&rows, tr, shields, at, out)
		matchAllTotals(t, m, tr, rel, out, "kept pass")
		if want := inCutoffPairs(tr, rel); evaluated+kept != want {
			t.Fatalf("shield at %d of %v: %d pairs evaluated and %d carried, want %d in all", at, tr, evaluated, kept, want)
		}
	}
}

// matchAllTotals requires out to hold AllTotals of tr bit for bit.
func matchAllTotals(t *testing.T, m *Model, tr []int, rel *Relation, out []float64, what string) {
	t.Helper()
	want := m.AllTotals(tr, rel)
	for q := range tr {
		if math.Float64bits(out[q]) != math.Float64bits(want[q]) {
			t.Fatalf("%s over %v: position %d total %v, AllTotals %v", what, tr, q, out[q], want[q])
		}
	}
}

// inCutoffPairs counts the sensitive signal pairs of tr within the pair
// cutoff.
func inCutoffPairs(tr []int, rel *Relation) int {
	c := 0
	for i := range tr {
		for j := i + 1; j < len(tr) && j-i <= pairCutoff; j++ {
			if tr[i] != Shield && tr[j] != Shield && rel.Has(tr[i], tr[j]) {
				c++
			}
		}
	}
	return c
}

// FuzzKeptRows holds the kept pass to AllTotalsInto over random shield
// insertion sequences (checkKeptRows).
func FuzzKeptRows(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(9), uint8(60), uint8(128), uint8(5))
	f.Add(int64(2), uint8(1), uint8(80), uint8(30), uint8(200), uint8(30))
	f.Add(int64(3), uint8(2), uint8(129), uint8(0), uint8(255), uint8(39))
	f.Add(int64(4), uint8(3), uint8(100), uint8(90), uint8(77), uint8(12))
	f.Add(int64(5), uint8(4), uint8(120), uint8(40), uint8(153), uint8(25))
	m := NewModel(tech.Default())
	f.Fuzz(func(t *testing.T, seed int64, size, width, shieldRate, sensRate, inserts uint8) {
		checkKeptRows(t, m, seed, size, width, shieldRate, sensRate, inserts)
	})
}

// TestKeptRowsMatchAllTotals runs checkKeptRows on 300 seeded draws, so
// that a plain test run covers wide and narrow stacks, every relation
// size, and insertion sequences long enough to push pairs past the
// cutoff.
func TestKeptRowsMatchAllTotals(t *testing.T) {
	m := NewModel(tech.Default())
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		u := func() uint8 { return uint8(rng.Intn(256)) }
		checkKeptRows(t, m, rng.Int63(), u(), u(), u()/3, u(), u())
	}
}

// TestInsertionZoneIsSound verifies the zone claim on random stacks:
// after a shield insertion, every signal track outside InsertionZone
// keeps both return distances, and the zone lies inside AffectedRange.
func TestInsertionZoneIsSound(t *testing.T) {
	m := NewModel(tech.Default())
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(130)
		l := randomLayout(n, 0.05+0.4*rng.Float64(), rng)
		before := m.ShieldTableInto(l, nil)
		at := rng.Intn(n + 1)
		edited := append(append(append([]int{}, l[:at]...), Shield), l[at:]...)
		after := m.ShieldTableInto(edited, nil)
		lo, hi := m.InsertionZone(after, at)
		if wlo, whi := m.AffectedRange(len(edited), at); lo < wlo || hi > whi {
			t.Fatalf("zone [%d,%d] of a shield at %d leaves the window [%d,%d]", lo, hi, at, wlo, whi)
		}
		for p := range edited {
			if edited[p] == Shield || (p >= lo && p <= hi) {
				continue
			}
			old := p
			if p > at {
				old = p - 1
			}
			if p-after[p][0] != old-before[old][0] || after[p][1]-p != before[old][1]-old {
				t.Fatalf("stack %v, shield at %d: position %d outside the zone [%d,%d] changed returns: %v → %v",
					l, at, p, lo, hi, before[old], after[p])
			}
		}
	}
}

package keff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// This file holds the bit-exactness oracle for the pair kernel: the
// coupling formula as it stood when every pair was evaluated from a lazily
// grown mutual memo (and cached in a table of 2·48·12⁴ slots), copied
// verbatim. The kernel now builds each wire's current split and loop
// inductance, and one row of partial mutuals, once per model; every pair
// it evaluates must return exactly the bits this formula does.

// oracleModel is the memo the original formula ran on.
type oracleModel struct {
	Tech *tech.Technology
	mu   []float64
}

func (m *oracleModel) mutualAt(d int) float64 {
	if d < 0 {
		d = -d
	}
	for len(m.mu) <= d {
		i := len(m.mu)
		var v float64
		if i == 0 {
			v = m.Tech.LSelf(refLength)
		} else {
			v = m.Tech.LMutual(float64(i)*m.Tech.Pitch(), refLength)
		}
		m.mu = append(m.mu, v)
	}
	return m.mu[d]
}

// pairCouplingAt is the original formula, verbatim.
func (m *oracleModel) pairCouplingAt(ti, tj int, si, sj [2]int) float64 {
	ls := m.mutualAt(0)
	loop := func(w, s int) float64 {
		ll := 2 * (ls - m.mutualAt(w-s))
		if ll < 1e-3*ls {
			ll = 1e-3 * ls
		}
		return ll
	}
	li := [2]float64{loop(ti, si[0]), loop(ti, si[1])}
	lj := [2]float64{loop(tj, sj[0]), loop(tj, sj[1])}
	// Current split: the share through the left return is proportional to
	// the inductance of the *right* loop (lower-inductance path carries
	// more).
	wi := [2]float64{li[1] / (li[0] + li[1]), li[0] / (li[0] + li[1])}
	wj := [2]float64{lj[1] / (lj[0] + lj[1]), lj[0] / (lj[0] + lj[1])}

	var mloop float64
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			ml := m.mutualAt(ti-tj) - m.mutualAt(ti-sj[b]) - m.mutualAt(si[a]-tj) + m.mutualAt(si[a]-sj[b])
			mloop += wi[a] * wj[b] * ml
		}
	}
	leffI := wi[0]*li[0] + wi[1]*li[1]
	leffJ := wj[0]*lj[0] + wj[1]*lj[1]
	k := math.Abs(mloop) / math.Sqrt(leffI*leffJ)
	if k >= 1 {
		k = 0.999999
	}
	return k
}

// oracleTotals sums the oracle's pairs the way AllTotals does: each pair
// within the cutoff once, lower position first, ascending.
func oracleTotals(o *oracleModel, tr []int, shields [][2]int, sensitive func(a, b int) bool) []float64 {
	out := make([]float64, len(tr))
	for i := range tr {
		for j := i + 1; j < len(tr) && j-i <= pairCutoff; j++ {
			if tr[i] == Shield || tr[j] == Shield || !sensitive(tr[i], tr[j]) {
				continue
			}
			k := o.pairCouplingAt(i, j, shields[i], shields[j])
			out[i] += k
			out[j] += k
		}
	}
	return out
}

// TestPairMatchesOracleExhaustive sweeps every geometry a shield table can
// produce within the pair cutoff: separations ±1…48 and each of the four
// return distances 1…12, 1,990,656 in all. Pair, and the in-row kernel
// pair that AllTotalsInto and TrackTotal call, must return the oracle's
// bits. Pair then switches from the row to the formula past inRowSep:
// every return geometry at separations ±95…±110 must match through Pair,
// through pair while the row holds it and through pairFar, and far
// partners to ±400 through Pair on a grid of returns.
func TestPairMatchesOracleExhaustive(t *testing.T) {
	m := NewModel(tech.Default())
	o := &oracleModel{Tech: tech.Default()}
	const ti, bg = 0, backgroundReturn
	// sweep calls check for every separation in ds and every return
	// geometry from rets, and returns how many it checked.
	sweep := func(ds, rets []int, check func(d, il, ir, jl, jr int, want float64)) int {
		n := 0
		for _, d := range ds {
			tj := ti + d
			for _, il := range rets {
				for _, ir := range rets {
					si := [2]int{ti - il, ti + ir}
					for _, jl := range rets {
						for _, jr := range rets {
							check(d, il, ir, jl, jr, o.pairCouplingAt(ti, tj, si, [2]int{tj - jl, tj + jr}))
							n++
						}
					}
				}
			}
		}
		return n
	}
	same := func(what string, d, il, ir, jl, jr int, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Helper()
			t.Fatalf("%s d=%d returns (%d,%d) (%d,%d) = %v, oracle %v", what, d, il, ir, jl, jr, got, want)
		}
	}
	pairOf := func(d, il, ir, jl, jr int) float64 {
		return m.Pair(ti, ti+d, [2]int{ti - il, ti + ir}, [2]int{ti + d - jl, ti + d + jr})
	}
	seps := func(lo, hi int) []int {
		var ds []int
		for d := lo; d <= hi; d++ {
			ds = append(ds, -d, d)
		}
		return ds
	}
	var all []int
	for r := 1; r <= bg; r++ {
		all = append(all, r)
	}

	n := sweep(seps(1, pairCutoff), all, func(d, il, ir, jl, jr int, want float64) {
		same("Pair", d, il, ir, jl, jr, pairOf(d, il, ir, jl, jr), want)
		same("pair", d, il, ir, jl, jr, m.pair(d, il, ir, jl, jr, m.wireTerms(il, ir), m.wireTerms(jl, jr)), want)
	})
	if n != 2*pairCutoff*bg*bg*bg*bg {
		t.Fatalf("swept %d geometries", n)
	}

	sweep(seps(95, 110), all, func(d, il, ir, jl, jr int, want float64) {
		wi, wj := m.wireTerms(il, ir), m.wireTerms(jl, jr)
		same("Pair", d, il, ir, jl, jr, pairOf(d, il, ir, jl, jr), want)
		same("pairFar", d, il, ir, jl, jr, m.pairFar(d, il, ir, jl, jr, wi, wj), want)
		if d <= inRowSep && -d <= inRowSep {
			same("pair", d, il, ir, jl, jr, m.pair(d, il, ir, jl, jr, wi, wj), want)
		}
	})

	sweep(seps(111, 400), []int{1, 2, 7, bg}, func(d, il, ir, jl, jr int, want float64) {
		same("Pair", d, il, ir, jl, jr, pairOf(d, il, ir, jl, jr), want)
	})
}

// TestCouplerCacheBeyondCutoff covers the single-pair callers that reach
// past the cutoff, which the pair table (and the Coupler in front of it)
// used to send around the table. sidePull sums a segment's couplings to
// every sensitive partner in the instance, in the operand order (pos, t)
// on both sides, so separations run to the instance width. Every ordered
// signal pair of wide random layouts must match the oracle, through Pair
// and through PairCoupling (which finds each wire's returns by its own
// scan), and so must a sweep of separations to ±400 with random capped
// returns.
func TestCouplerCacheBeyondCutoff(t *testing.T) {
	m := NewModel(tech.Default())
	o := &oracleModel{Tech: tech.Default()}
	rng := rand.New(rand.NewSource(5))
	check := func(what string, got, want float64, ti, tj int, si, sj [2]int) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%d,%d) returns %v %v = %v, oracle %v", what, ti, tj, si, sj, got, want)
		}
	}
	for _, n := range []int{130, 420} {
		l := randomLayout(n, 0.08, rng)
		shields := m.ShieldTableInto(l, nil)
		for ti := range l {
			for tj := range l {
				if ti == tj || l[ti] == Shield || l[tj] == Shield {
					continue
				}
				si, sj := shields[ti], shields[tj]
				want := o.pairCouplingAt(ti, tj, si, sj)
				check("Pair", m.Pair(ti, tj, si, sj), want, ti, tj, si, sj)
				check("PairCoupling", m.PairCoupling(l, ti, tj), want, ti, tj, si, sj)
			}
		}
	}
	const bg = backgroundReturn
	for d := -400; d <= 400; d++ {
		if d == 0 {
			continue
		}
		for rep := 0; rep < 8; rep++ {
			ti, tj := 500, 500+d
			si := [2]int{ti - 1 - rng.Intn(bg), ti + 1 + rng.Intn(bg)}
			sj := [2]int{tj - 1 - rng.Intn(bg), tj + 1 + rng.Intn(bg)}
			check("Pair", m.Pair(ti, tj, si, sj), o.pairCouplingAt(ti, tj, si, sj), ti, tj, si, sj)
		}
	}
}

// TestCachedTotalsMatchUncached: totals summed from the model's per-wire
// terms and mutual row (AllTotalsInto, and TrackTotal per position) equal
// the totals the original formula sums, bit for bit, on layouts wider than
// the cutoff and under a partial sensitivity relation.
func TestCachedTotalsMatchUncached(t *testing.T) {
	m := NewModel(tech.Default())
	o := &oracleModel{Tech: tech.Default()}
	rng := rand.New(rand.NewSource(13))
	half := func(a, b int) bool { return (a*7+b*7)%3 != 0 }
	for _, l := range [][]int{
		denseLayout(8),
		denseLayout(12, 3, 7),
		denseLayout(30, 0, 15, 29),
		randomLayout(61, 0.15, rng),
		randomLayout(140, 0.05, rng),
	} {
		shields := m.ShieldTableInto(l, nil)
		for _, sens := range []func(a, b int) bool{allSensitive, half} {
			want := oracleTotals(o, l, shields, sens)
			rel := relOf(l, sens)
			got := m.AllTotals(l, rel)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d tracks, position %d: AllTotals %v, oracle %v", len(l), i, got[i], want[i])
				}
				if l[i] == Shield {
					continue
				}
				if k := m.TrackTotal(l, shields, i, rel); math.Float64bits(k) != math.Float64bits(want[i]) {
					t.Fatalf("%d tracks, position %d: TrackTotal %v, oracle %v", len(l), i, k, want[i])
				}
			}
		}
	}
}

package keff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// This file keeps the totals passes as they were when they took the
// sensitivity relation as a closure, func(a, b int) bool, called once per
// in-cutoff pair. Their bodies are verbatim but for the names; they are
// the oracle the bit-row passes (TrackTotal, AllTotalsInto) must match
// bit for bit.

// closureTrackTotal is the closure form of TrackTotal.
func (m *Model) closureTrackTotal(tr []Track, shields [][2]int, ti int, sensitive func(a, b int) bool) float64 {
	il, ir := ti-shields[ti][0], shields[ti][1]-ti
	wt := m.wireTerms(il, ir)
	sum := 0.0
	hi := min(ti+pairCutoff, len(tr)-1)
	for q := max(ti-pairCutoff, 0); q <= hi; q++ {
		if q == ti || tr[q].Kind != SignalTrack || !sensitive(tr[ti].Net, tr[q].Net) {
			continue
		}
		ql, qr := q-shields[q][0], shields[q][1]-q
		if q < ti {
			sum += m.pair(ti-q, ql, qr, il, ir, m.wireTerms(ql, qr), wt)
		} else {
			sum += m.pair(q-ti, il, ir, ql, qr, wt, m.wireTerms(ql, qr))
		}
	}
	return sum
}

// closureAllTotalsInto is the closure form of AllTotalsInto.
func (m *Model) closureAllTotalsInto(tr []Track, shields [][2]int, sensitive func(a, b int) bool, out []float64) {
	clear(out)
	for i := range tr {
		if tr[i].Kind != SignalTrack {
			continue
		}
		il, ir := i-shields[i][0], shields[i][1]-i
		wi := m.wireTerms(il, ir)
		jMax := min(i+pairCutoff, len(tr)-1)
		for j := i + 1; j <= jMax; j++ {
			if tr[j].Kind != SignalTrack || !sensitive(tr[i].Net, tr[j].Net) {
				continue
			}
			jl, jr := j-shields[j][0], shields[j][1]-j
			k := m.pair(j-i, il, ir, jl, jr, wi, m.wireTerms(jl, jr))
			out[i] += k
			out[j] += k
		}
	}
}

// TestRelationTotalsMatchClosureForm requires the bit-row totals passes to
// return the closure form's bits on random layouts: up to 260 tracks,
// shield density 0–40%, relation rate 0.1–0.9, and signal Net values a
// random permutation, so that a pass testing the partner's position
// instead of its net, or the fixed track's row instead of its partner's,
// gives other bits. Relations over up to 260 nets span five words a row.
func TestRelationTotalsMatchClosureForm(t *testing.T) {
	m := NewModel(tech.Default())
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(260)
		if trial%10 == 0 {
			n = 200 + rng.Intn(61)
		}
		shieldFrac, rate := 0.4*rng.Float64(), 0.1+0.8*rng.Float64()
		nets := rng.Perm(n)
		l := Layout{Tracks: make([]Track, n)}
		for i := range l.Tracks {
			if rng.Float64() < shieldFrac {
				l.Tracks[i] = ShieldOf()
			} else {
				l.Tracks[i] = SignalOf(nets[i])
			}
		}
		// A symmetric matrix the closure reads and the relation copies.
		sens := make([][]bool, n)
		for a := range sens {
			sens[a] = make([]bool, n)
		}
		rel := NewRelation(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < rate {
					sens[a][b], sens[b][a] = true, true
					rel.Set(a, b)
				}
			}
		}
		closure := func(a, b int) bool { return sens[a][b] }

		shields := m.ShieldTableInto(l.Tracks, nil)
		want, got := make([]float64, n), make([]float64, n)
		m.closureAllTotalsInto(l.Tracks, shields, closure, want)
		m.AllTotalsInto(l.Tracks, shields, rel, got)
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("trial %d (%d tracks, rate %.2f): AllTotalsInto[%d] = %v, closure form %v", trial, n, rate, p, got[p], want[p])
			}
			if l.Tracks[p].Kind != SignalTrack {
				continue
			}
			wt := m.closureTrackTotal(l.Tracks, shields, p, closure)
			if gt := m.TrackTotal(l.Tracks, shields, p, rel); math.Float64bits(gt) != math.Float64bits(wt) {
				t.Fatalf("trial %d (%d tracks, rate %.2f): TrackTotal(%d) = %v, closure form %v", trial, n, rate, p, gt, wt)
			}
		}
	}
}

// TestRelationDegreeAndSymmetry pins the relation's reads against the
// pairs its builder set: Has in both orientations, never on the diagonal,
// and Degree as the number of partners.
func TestRelationDegreeAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		rel := NewRelation(n)
		want := make([][]bool, n)
		for a := range want {
			want[a] = make([]bool, n)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Intn(3) == 0 {
					rel.Set(a, b)
					want[a][b], want[b][a] = true, true
				}
			}
		}
		if rel.Len() != n {
			t.Fatalf("Len() = %d, want %d", rel.Len(), n)
		}
		for a := 0; a < n; a++ {
			deg := 0
			for b := 0; b < n; b++ {
				if rel.Has(a, b) != want[a][b] {
					t.Fatalf("n=%d: Has(%d, %d) = %v, want %v", n, a, b, rel.Has(a, b), want[a][b])
				}
				if want[a][b] {
					deg++
				}
			}
			if rel.Degree(a) != deg {
				t.Fatalf("n=%d: Degree(%d) = %d, want %d", n, a, rel.Degree(a), deg)
			}
		}
	}
}

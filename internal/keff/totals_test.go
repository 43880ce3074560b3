package keff

import (
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// randomLayout builds a layout of n tracks with the given shield density.
func randomLayout(n int, shieldFrac float64, rng *rand.Rand) Layout {
	l := Layout{Tracks: make([]Track, n)}
	for i := range l.Tracks {
		if rng.Float64() < shieldFrac {
			l.Tracks[i] = ShieldOf()
		} else {
			l.Tracks[i] = SignalOf(i)
		}
	}
	return l
}

// denseLayout builds an n-track layout with shields at the given positions.
func denseLayout(n int, shieldAt ...int) Layout {
	l := Layout{Tracks: make([]Track, n)}
	for i := range l.Tracks {
		l.Tracks[i] = SignalOf(i)
	}
	for _, s := range shieldAt {
		l.Tracks[s] = ShieldOf()
	}
	return l
}

func allPairsSensitive(a, b int) bool { return a != b }

// relOf snapshots sens over nets 0 … the largest Net on a signal track
// of l.
func relOf(l Layout, sens func(a, b int) bool) *Relation {
	n := 0
	for _, t := range l.Tracks {
		if t.Kind == SignalTrack {
			n = max(n, t.Net+1)
		}
	}
	return relOver(n, sens)
}

// relOver snapshots sens over nets 0 … n−1, asking in row-major order
// over a < b.
func relOver(n int, sens func(a, b int) bool) *Relation {
	r := NewRelation(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if sens(a, b) {
				r.Set(a, b)
			}
		}
	}
	return r
}

// TestTrackTotalMatchesAllTotals pins the bit-identity the incremental
// evaluator rests on: a single position's TrackTotal equals the same
// position's entry of the pair-once AllTotals pass, exactly.
func TestTrackTotalMatchesAllTotals(t *testing.T) {
	m := NewModel(tech.Default())
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 20, 60, 130} {
		for trial := 0; trial < 4; trial++ {
			l := randomLayout(n, 0.25, rng)
			rel := relOf(l, allPairsSensitive)
			want := m.AllTotals(l, rel)
			shields := m.ShieldTableInto(l.Tracks, nil)
			for ti := range l.Tracks {
				if l.Tracks[ti].Kind != SignalTrack {
					continue
				}
				got := m.TrackTotal(l.Tracks, shields, ti, rel)
				if got != want[ti] {
					t.Fatalf("n=%d trial=%d pos=%d: TrackTotal %v != AllTotals %v", n, trial, ti, got, want[ti])
				}
			}
		}
	}
}

// TestShieldTableIntoMatchesNeighbors checks the sweep table against the
// per-position scan for random layouts.
func TestShieldTableIntoMatchesNeighbors(t *testing.T) {
	m := NewModel(tech.Default())
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		l := randomLayout(1+rng.Intn(50), 0.3, rng)
		table := m.ShieldTableInto(l.Tracks, nil)
		for i := range l.Tracks {
			wl, wr := m.shieldNeighbors(l.Tracks, i)
			if table[i][0] != wl || table[i][1] != wr {
				t.Fatalf("trial %d pos %d: table (%d,%d) != neighbors (%d,%d)",
					trial, i, table[i][0], table[i][1], wl, wr)
			}
		}
	}
}

// TestAffectedRangeIsSound verifies the window claim: totals outside
// AffectedRange are bit-identical across a single-track insertion or
// removal at the edit point. Layouts of 260 tracks or more are wider than
// the ±61-track window at every edit point.
func TestAffectedRangeIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewModel(tech.Default())
	for _, minTracks := range []int{1, 260} {
		for trial := 0; trial < 40; trial++ {
			n := minTracks + rng.Intn(120)
			l := randomLayout(n, 0.25, rng)
			rel := relOver(n+1, allPairsSensitive) // net n is the inserted signal
			before := m.AllTotals(l, rel)

			at := rng.Intn(n + 1)
			edited := Layout{Tracks: make([]Track, 0, n+1)}
			edited.Tracks = append(edited.Tracks, l.Tracks[:at]...)
			var ins Track
			if rng.Intn(2) == 0 {
				ins = ShieldOf()
			} else {
				ins = SignalOf(n)
			}
			edited.Tracks = append(edited.Tracks, ins)
			edited.Tracks = append(edited.Tracks, l.Tracks[at:]...)
			after := m.AllTotals(edited, rel)

			lo, hi := m.AffectedRange(edited, at)
			if minTracks >= 260 && lo == 0 && hi == n {
				t.Fatalf("%d tracks: window [%d,%d] covers the whole layout", n+1, lo, hi)
			}
			for p := range edited.Tracks {
				if p >= lo && p <= hi {
					continue
				}
				old := p
				if p > at {
					old = p - 1
				}
				if after[p] != before[old] {
					t.Fatalf("n=%d trial=%d: position %d outside window [%d,%d] changed: %v -> %v",
						n, trial, p, lo, hi, before[old], after[p])
				}
			}
		}
	}
}

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

func allPairsSensitive(a, b int) bool { return a != b }

// TestTrackTotalMatchesAllTotals pins the bit-identity the incremental
// evaluator rests on: a single position's TrackTotal equals the same
// position's entry of the pair-once AllTotals pass, exactly.
func TestTrackTotalMatchesAllTotals(t *testing.T) {
	m := NewModel(tech.Default())
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 20, 60, 130} {
		for trial := 0; trial < 4; trial++ {
			l := randomLayout(n, 0.25, rng)
			want := m.AllTotals(l, allPairsSensitive)
			cp := NewCoupler(m, nil)
			shields := m.ShieldTableInto(l.Tracks, nil)
			for ti := range l.Tracks {
				if l.Tracks[ti].Kind != SignalTrack {
					continue
				}
				got := cp.TrackTotal(l.Tracks, shields, ti, allPairsSensitive)
				if got != want[ti] {
					t.Fatalf("n=%d trial=%d pos=%d: TrackTotal %v != AllTotals %v", n, trial, ti, got, want[ti])
				}
			}
		}
	}
}

// couplerVsDirect evaluates every ordered signal pair of l through a
// Coupler over cache and directly, twice, failing on any bit difference.
// It returns the number of evaluations and how many of them fell outside
// the table — the geometries whose separation exceeds the pair cutoff.
func couplerVsDirect(t *testing.T, m *Model, cache *PairCache, l Layout) (evals, outside int) {
	t.Helper()
	cached := NewCoupler(m, cache)
	direct := NewCoupler(m.Clone(), nil)
	sepBound := cache.Info().SepBound
	shields := m.ShieldTableInto(l.Tracks, nil)
	for pass := 0; pass < 2; pass++ {
		for ti := range l.Tracks {
			for tj := range l.Tracks {
				if ti == tj || l.Tracks[ti].Kind != SignalTrack || l.Tracks[tj].Kind != SignalTrack {
					continue
				}
				si, sj := shields[ti], shields[tj]
				evals++
				got := cached.Pair(ti, tj, si, sj)
				if want := direct.Pair(ti, tj, si, sj); got != want {
					t.Fatalf("pass %d: cached pair (%d,%d) = %v, direct = %v", pass, ti, tj, got, want)
				}
				d := tj - ti
				if d < 0 {
					d = -d
				}
				if d > sepBound {
					outside++
				}
			}
		}
	}
	cached.Flush()
	return evals, outside
}

// TestCouplerCacheBeyondCutoff covers sidePull's case: a single-pair caller
// evaluating partners beyond the pair cutoff, in both operand orders. Those
// geometries lie outside the table; they must come back as direct bits and
// be counted as overflow, one per evaluation, while in-bounds pairs are
// served by the table.
func TestCouplerCacheBeyondCutoff(t *testing.T) {
	m := NewModel(tech.Default())
	cache := NewPairCacheFor(m)
	l := randomLayout(130, 0.1, rand.New(rand.NewSource(21)))
	evals, outside := couplerVsDirect(t, m, cache, l)
	if outside == 0 {
		t.Fatalf("layout has no pairs beyond the table's separation bound %d", cache.Info().SepBound)
	}
	if got := cache.Info().Overflow; got != outside {
		t.Errorf("Info().Overflow = %d, want %d evaluations outside the table", got, outside)
	}
	// Bypassed evaluations are neither hits nor misses.
	if h, miss := cache.Stats(); h == 0 || miss == 0 || h+miss != uint64(evals-outside) {
		t.Errorf("hits %d + misses %d, want both nonzero and summing to the %d in-table evaluations", h, miss, evals-outside)
	}
}

// TestCouplerSharedCacheBitIdentical checks that a Coupler over a shared
// cache returns direct bits, and that Flush accounts the batched lookups.
func TestCouplerSharedCacheBitIdentical(t *testing.T) {
	m := NewModel(tech.Default())
	cache := NewPairCacheFor(m)
	cached := NewCoupler(m, cache)
	direct := NewCoupler(m.Clone(), nil)
	l := randomLayout(30, 0.2, rand.New(rand.NewSource(9)))
	shields := m.ShieldTableInto(l.Tracks, nil)
	for pass := 0; pass < 2; pass++ {
		for ti := range l.Tracks {
			for tj := ti + 1; tj < len(l.Tracks); tj++ {
				if l.Tracks[ti].Kind != SignalTrack || l.Tracks[tj].Kind != SignalTrack {
					continue
				}
				if got, want := cached.Pair(ti, tj, shields[ti], shields[tj]), direct.Pair(ti, tj, shields[ti], shields[tj]); got != want {
					t.Fatalf("cached pair (%d,%d) = %v, direct = %v", ti, tj, got, want)
				}
			}
		}
	}
	cached.Flush()
	if h, miss := cache.Stats(); h == 0 || miss == 0 {
		t.Errorf("expected both hits and misses after two passes, got %d/%d", h, miss)
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
			before := m.AllTotals(l, allPairsSensitive)

			at := rng.Intn(n + 1)
			edited := Layout{Tracks: make([]Track, 0, n+1)}
			edited.Tracks = append(edited.Tracks, l.Tracks[:at]...)
			var ins Track
			if rng.Intn(2) == 0 {
				ins = ShieldOf()
			} else {
				ins = SignalOf(1000 + trial)
			}
			edited.Tracks = append(edited.Tracks, ins)
			edited.Tracks = append(edited.Tracks, l.Tracks[at:]...)
			after := m.AllTotals(edited, allPairsSensitive)

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

package keff

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tech"
)

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

func TestCachedTotalsMatchUncached(t *testing.T) {
	m := NewModel(tech.Default())
	c := NewPairCacheFor(m)
	for _, l := range []Layout{
		denseLayout(8),
		denseLayout(12, 3, 7),
		denseLayout(30, 0, 15, 29),
	} {
		want := m.AllTotals(l, allSensitive)
		// Twice: the second pass is served from the cache and must be
		// bit-identical (cached values are the computed float64s).
		for pass := 0; pass < 2; pass++ {
			got := m.AllTotalsCached(c, l, allSensitive)
			if len(got) != len(want) {
				t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("pass %d track %d: cached %g != uncached %g", pass, i, got[i], want[i])
				}
			}
		}
	}
	if h, _ := c.Stats(); h == 0 {
		t.Error("second pass produced no cache hits")
	}
	if c.Info().Dense == 0 {
		t.Error("cache stored no geometries")
	}
}

func TestCloneIsIndependentAndEquivalent(t *testing.T) {
	m := NewModel(tech.Default())
	l := denseLayout(16, 8)
	want := m.AllTotals(l, allSensitive)

	clone := m.Clone()
	got := clone.AllTotals(l, allSensitive)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("track %d: clone %g != original %g", i, got[i], want[i])
		}
	}
	// Growing the clone's memo must not touch the original.
	before := len(m.mu)
	clone.mutualAt(before + 50)
	if len(m.mu) != before {
		t.Errorf("warming the clone grew the original's memo: %d -> %d", before, len(m.mu))
	}
}

// TestPairCacheConcurrentUse races workers filling empty caches: in each
// round all start together on the same sequence of layouts, so they miss
// on the same geometries at once. Totals must stay bit-identical, and the
// O(1) occupancy count must equal the number of distinct geometries the
// layouts contain — a racy double fill of one slot counts once.
func TestPairCacheConcurrentUse(t *testing.T) {
	proto := NewModel(tech.Default())
	proto.mutualAt(64)
	layouts := []Layout{denseLayout(40, 10, 30), denseLayout(48), denseLayout(33, 0, 7, 8, 20)}
	want := make([][]float64, len(layouts))
	geoms := make(map[[5]int]bool)
	for li, l := range layouts {
		want[li] = proto.AllTotals(l, allSensitive)
		sh := proto.shieldTable(l.Tracks)
		for i := range l.Tracks {
			for j := i + 1; j < len(l.Tracks) && j-i <= pairCutoff; j++ {
				if l.Tracks[i].Kind == SignalTrack && l.Tracks[j].Kind == SignalTrack {
					geoms[[5]int{j - i, i - sh[i][0], sh[i][1] - i, j - sh[j][0], sh[j][1] - j}] = true
				}
			}
		}
	}

	for round := 0; round < 10; round++ {
		c := NewPairCacheFor(proto)
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := proto.Clone()
				<-start
				for rep := 0; rep < 20; rep++ {
					li := rep % len(layouts)
					got := m.AllTotalsCached(c, layouts[li], allSensitive)
					for i := range got {
						if math.Abs(got[i]-want[li][i]) != 0 {
							errs <- "concurrent cached totals diverged"
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
		if h, _ := c.Stats(); h == 0 {
			t.Error("no hits after repeated identical evaluations")
		}
		if info := c.Info(); info.Dense != len(geoms) || info.Overflow != 0 {
			t.Fatalf("round %d: Info() = %+v, want %d distinct geometries and no overflow", round, info, len(geoms))
		}
	}
}

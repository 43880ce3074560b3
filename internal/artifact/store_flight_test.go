package artifact

// Satellite coverage for the store's two trickiest interleavings:
// eviction racing single-flight at capacity 1, and leader failure with a
// crowd of waiters racing to inherit leadership.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/route"
)

// TestStoreEvictionSingleFlightInterleaving hammers a capacity-1 store
// with two keys from many goroutines, so every publication of one key
// evicts the other while lookups and in-flight computes for both
// interleave arbitrarily. Invariants that must hold on every schedule:
// each lookup is served the correctly-keyed sealed artifact, each compute
// seals only its own key (evicted artifacts recompute cleanly), and the
// counters reconcile exactly — every lookup is a hit or a miss, misses
// equal compute runs, and evictions equal publications minus what's still
// resident.
func TestStoreEvictionSingleFlightInterleaving(t *testing.T) {
	g := testGrid(t, 8, 8)
	res, ds := testResult(t, g)
	keys := [2]Key{}
	for i := range keys {
		nets := testNets()
		nets[0].Rate = float64(i+1) / 10
		keys[i] = KeyFor(g, route.Config{}, route.ShardConfig{}, nets)
	}
	s := NewStore(1)

	const goroutines, iters = 8, 50
	var computes [2]atomic.Int64
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ki := (gi + it) % 2
				key := keys[ki]
				a, _, err := s.Do(context.Background(), key, func(context.Context) (*Artifact, error) {
					computes[ki].Add(1)
					return Seal(key, res, ds), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if a.Key() != key {
					t.Errorf("lookup of %s served %s", key, a.Key())
					return
				}
				if _, err := a.Result(); err != nil {
					t.Error(err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()

	total := uint64(goroutines * iters)
	st := s.Stats()
	if st.Hits+st.Misses != total {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, total)
	}
	nc := uint64(computes[0].Load() + computes[1].Load())
	if st.Misses != nc {
		t.Fatalf("misses %d != %d compute runs", st.Misses, nc)
	}
	if want := st.Misses - uint64(s.Len()); st.Evictions != want {
		t.Fatalf("evictions %d, want misses %d - resident %d", st.Evictions, st.Misses, s.Len())
	}
	if s.Len() != 1 {
		t.Fatalf("capacity-1 store holds %d artifacts", s.Len())
	}
	// Both keys were computed at least once and both were evicted at least
	// once (only one can be resident), i.e. eviction + recompute actually
	// interleaved with single-flight rather than one key monopolizing.
	for ki := range computes {
		if computes[ki].Load() < 1 {
			t.Fatalf("key %d never computed", ki)
		}
	}
	if st.Evictions < 1 {
		t.Fatal("no evictions at capacity 1 with two keys")
	}
}

// TestStoreLeaderFailureWaiterRace: F leaders in a row fail while a crowd
// of waiters blocks on the flight. Exactly the F callers that ran a
// failing compute observe the error; every other caller must end up with
// the same sealed artifact, whichever waiter wins the re-leadership race.
// Compute runs exactly F+1 times: the single success publishes, so no
// later caller can become a leader again.
func TestStoreLeaderFailureWaiterRace(t *testing.T) {
	g := testGrid(t, 8, 8)
	res, ds := testResult(t, g)
	key := KeyFor(g, route.Config{}, route.ShardConfig{}, testNets())
	s := NewStore(0)

	const waiters, failures = 16, 3
	boom := errors.New("boom")
	var calls atomic.Int64
	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	arts := make([]*Artifact, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, err := s.Do(context.Background(), key, func(context.Context) (*Artifact, error) {
				if calls.Add(1) <= failures {
					return nil, boom
				}
				return Seal(key, res, ds), nil
			})
			if err != nil {
				if !errors.Is(err, boom) {
					t.Errorf("unexpected error: %v", err)
				}
				errCount.Add(1)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != failures+1 {
		t.Fatalf("compute ran %d times, want %d", got, failures+1)
	}
	if got := errCount.Load(); got != failures {
		t.Fatalf("%d callers saw the error, want %d (one per failed leadership)", got, failures)
	}
	var won *Artifact
	for _, a := range arts {
		if a == nil {
			continue
		}
		if won == nil {
			won = a
		} else if a != won {
			t.Fatal("successful callers disagree on the artifact")
		}
	}
	if won == nil || won.Key() != key {
		t.Fatalf("no caller got the artifact")
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != waiters-failures-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, waiters-failures-1)
	}
}

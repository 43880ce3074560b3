package core

import (
	"context"
	"errors"
	"testing"
)

// TestRefineCancelBeforeFirstWave: cancellation before any wave runs must
// propagate context.Canceled and leave the chip state untouched, bit for
// bit — the strongest form of "no partial mutation of shared state".
func TestRefineCancelBeforeFirstWave(t *testing.T) {
	r, st := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	snaps := snapshotState(st)
	ctx, cancel := cancelAtWave(r.eng, 0)
	defer cancel()
	_, err := st.refine(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.waves() != 1 {
		t.Fatalf("refinement started %d waves, want exactly the cancelled first one", ctx.waves())
	}
	for i, in := range st.orderd {
		if !instEqualsSnap(in, &snaps[i]) {
			t.Fatalf("instance %d mutated by a refinement cancelled before its first wave", i)
		}
	}
}

// TestRefineCancelMidRun: cancelling between waves must surface
// context.Canceled from refine, and the surviving chip state must remain
// internally consistent — every instance still carries a complete
// solution (cancellation stops between solves, never inside one), and a
// fresh refinement run from the interrupted state completes and repairs
// everything, exactly as it would from any other valid solved state.
func TestRefineCancelMidRun(t *testing.T) {
	// Probe an identical fixture to confirm it genuinely needs more than
	// one repair wave, so the cancellation below fires mid-run.
	_, probe := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	pstats, err := probe.refine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pstats.Waves < 2 {
		t.Fatalf("fixture repairs in %d wave(s); mid-run cancellation needs at least 2", pstats.Waves)
	}

	r, st := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	ctx, cancel := cancelAtWave(r.eng, 1)
	defer cancel()
	if _, err := st.refine(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, in := range st.orderd {
		if in.sol == nil || len(in.k) != len(in.Segs) || in.sol.NumTracks() < len(in.Segs) {
			t.Fatalf("instance %d left torn by cancellation", i)
		}
	}
	stats, err := st.refine(context.Background())
	if err != nil {
		t.Fatalf("refinement resumed from a cancelled state failed: %v", err)
	}
	if left := len(st.violating()); left != 0 {
		t.Errorf("%d violations remain after resuming refinement (unfixable %d)", left, stats.unfixable)
	}
}

// TestRefinePass2CancelDuringSpeculation: the speculation wave computes
// against a frozen snapshot and mutates nothing shared; cancelling it must
// leave the post-pass-1 chip state byte-identical — no speculative plan
// may leak into the instances when acceptance never ran.
func TestRefinePass2CancelDuringSpeculation(t *testing.T) {
	r, st := ibmRefineFixture(t, 16, 0.5, 1, Params{})
	var stats refineStats
	tr := st.newViolTracker()
	if _, err := runPass1(context.Background(), st, tr, &stats); err != nil {
		t.Fatal(err)
	}
	if left := len(st.violating()); left != 0 {
		t.Fatalf("pass 1 left %d violations on a fixture it is known to fully repair", left)
	}
	snaps := snapshotState(st)

	ctx, cancel := cancelAtWave(r.eng, 0)
	defer cancel()
	if err := st.refinePass2(ctx, tr, &stats); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.waves() == 0 {
		t.Fatal("pass 2 never reached its speculation wave; fixture drifted")
	}
	for i, in := range st.orderd {
		if !instEqualsSnap(in, &snaps[i]) {
			t.Fatalf("instance %d mutated by a cancelled speculation wave", i)
		}
	}
}

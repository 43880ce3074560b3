package sino

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keff"
	"repro/internal/tech"
)

// testInstance builds an n-segment instance with uniform rate and bound,
// using a deterministic pairwise sensitivity drawn from seed.
func testInstance(n int, rate, kth float64, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = rate
	}
	sens := randomSensitivity(n, rates, rng)
	segs := make([]Seg, n)
	for i := range segs {
		segs[i] = Seg{Net: i, Kth: kth, Rate: rate}
	}
	return &Instance{Segs: segs, Sensitive: sens, Model: keff.NewModel(tech.Default())}
}

func TestSolveProducesFeasibleSolutions(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 20, 40} {
		for _, rate := range []float64{0.3, 0.5} {
			in := testInstance(n, rate, 0.7, int64(n)*7+int64(rate*10))
			sol, chk := Solve(in)
			if chk.Structural != nil {
				t.Fatalf("n=%d rate=%g: structural: %v", n, rate, chk.Structural)
			}
			if !chk.Feasible() {
				t.Errorf("n=%d rate=%g: infeasible: %d cap pairs, %d K violations (worst %.2f)",
					n, rate, len(chk.CapPairs), len(chk.Over), chk.WorstOver)
			}
			if sol.NumTracks() != n+sol.NumShields() {
				t.Errorf("n=%d: track accounting broken: %d tracks, %d shields", n, sol.NumTracks(), sol.NumShields())
			}
		}
	}
}

func TestSolveNoConflictsNoShields(t *testing.T) {
	// With no sensitivities at all, K_i = 0 for everyone and no shields are
	// needed regardless of bounds.
	in := testInstance(12, 0, 0.1, 1)
	in.Sensitive = func(a, b int) bool { return false }
	sol, chk := Solve(in)
	if !chk.Feasible() {
		t.Fatal("conflict-free instance infeasible")
	}
	if sol.NumShields() != 0 {
		t.Errorf("conflict-free instance got %d shields, want 0", sol.NumShields())
	}
}

func TestSolveAllConflictDense(t *testing.T) {
	// Fully sensitive cluster with a tight bound: expect shields between
	// every pair (capacitive constraint alone forces n-1 shields).
	in := testInstance(6, 1, 0.5, 1)
	in.Sensitive = func(a, b int) bool { return a != b }
	sol, chk := Solve(in)
	if !chk.Feasible() {
		t.Fatalf("dense instance infeasible: %d cap, %d K over", len(chk.CapPairs), len(chk.Over))
	}
	if sol.NumShields() < 5 {
		t.Errorf("fully sensitive 6-net cluster needs >= 5 shields, got %d", sol.NumShields())
	}
}

func TestTighterBoundsNeedMoreShields(t *testing.T) {
	loose := testInstance(16, 0.5, 1.2, 3)
	tight := testInstance(16, 0.5, 0.35, 3)
	solLoose, chkLoose := Solve(loose)
	solTight, chkTight := Solve(tight)
	if !chkLoose.Feasible() || !chkTight.Feasible() {
		t.Skip("instance infeasible at this size; covered elsewhere")
	}
	if solTight.NumShields() < solLoose.NumShields() {
		t.Errorf("tight bound used fewer shields (%d) than loose bound (%d)",
			solTight.NumShields(), solLoose.NumShields())
	}
}

func TestVerifyCatchesCapViolation(t *testing.T) {
	in := testInstance(2, 1, 5, 1)
	in.Sensitive = func(a, b int) bool { return a != b }
	bad := &Solution{Tracks: []int{0, 1}}
	chk := in.verify(bad, nil)
	if len(chk.CapPairs) != 1 {
		t.Fatalf("adjacent sensitive pair not detected: %+v", chk.CapPairs)
	}
	good := &Solution{Tracks: []int{0, Shield, 1}}
	if chk := in.verify(good, nil); len(chk.CapPairs) != 0 {
		t.Errorf("shield-separated pair flagged: %+v", chk.CapPairs)
	}
}

func TestVerifyCatchesStructuralErrors(t *testing.T) {
	in := testInstance(3, 0.5, 1, 1)
	cases := []struct {
		name   string
		tracks []int
	}{
		{"missing segment", []int{0, 1}},
		{"duplicate segment", []int{0, 1, 1, 2}},
		{"unknown segment", []int{0, 1, 2, 7}},
	}
	for _, c := range cases {
		if chk := in.verify(&Solution{Tracks: c.tracks}, nil); chk.Structural == nil {
			t.Errorf("%s: want structural error", c.name)
		}
	}
}

func TestVerifyKAccounting(t *testing.T) {
	in := testInstance(4, 1, 1e-9, 1) // absurdly tight bound: everything violates
	in.Sensitive = func(a, b int) bool { return a != b }
	sol := &Solution{Tracks: []int{0, Shield, 1, Shield, 2, Shield, 3}}
	chk := in.verify(sol, nil)
	if len(chk.Over) != 4 {
		t.Errorf("with Kth=1e-9 all 4 segments must violate, got %d", len(chk.Over))
	}
	if chk.WorstSeg < 0 || chk.WorstOver <= 0 {
		t.Errorf("worst violation not reported: seg %d over %g", chk.WorstSeg, chk.WorstOver)
	}
}

func TestNetOrderOnlyNeverInsertsShields(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := testInstance(20, 0.5, 0.7, seed)
		sol, _ := NetOrderOnly(in)
		if sol.NumShields() != 0 {
			t.Fatalf("NO inserted %d shields", sol.NumShields())
		}
		if sol.NumTracks() != 20 {
			t.Fatalf("NO changed track count: %d", sol.NumTracks())
		}
	}
}

func TestNetOrderReducesCapPairs(t *testing.T) {
	in := testInstance(20, 0.5, 0.7, 5)
	identity := &Solution{Tracks: make([]int, 20)}
	for i := range identity.Tracks {
		identity.Tracks[i] = i
	}
	before := capPairCount(identity.Tracks, in.relation())
	sol, _ := NetOrderOnly(in)
	after := capPairCount(sol.Tracks, in.relation())
	if after > before {
		t.Errorf("NO increased adjacent sensitive pairs: %d -> %d", before, after)
	}
}

func TestSolutionClone(t *testing.T) {
	// Eval.Solution hands out a copy: editing it must not reach the
	// evaluator's track array.
	in := testInstance(2, 0, 1, 1)
	e := NewEval()
	e.Bind(in)
	if err := e.load([]int{0, Shield, 1}, nil); err != nil {
		t.Fatal(err)
	}
	c := e.Solution()
	c.Tracks[0] = 99
	if e.tracks[0] == 99 {
		t.Error("Solution shares the evaluator's backing array")
	}
}

func TestAnnealNeverWorseThanGreedy(t *testing.T) {
	for _, seed := range []int64{1, 4, 9} {
		in := testInstance(10, 0.5, 0.6, seed)
		gs, gchk := Solve(in)
		as, achk := Anneal(in, AnnealOptions{Seed: seed, Iterations: 3000})
		if gchk.Feasible() && !achk.Feasible() {
			t.Fatalf("seed %d: anneal lost feasibility", seed)
		}
		if achk.Feasible() && gchk.Feasible() && as.NumTracks() > gs.NumTracks() {
			t.Errorf("seed %d: anneal area %d worse than greedy %d", seed, as.NumTracks(), gs.NumTracks())
		}
	}
}

func TestGreedyNearAnnealArea(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing comparison is slow")
	}
	worse := 0
	total := 0
	for seed := int64(0); seed < 6; seed++ {
		in := testInstance(12, 0.4, 0.6, seed)
		gs, gchk := Solve(in)
		as, achk := Anneal(in, AnnealOptions{Seed: seed, Iterations: 8000})
		if !gchk.Feasible() || !achk.Feasible() {
			continue
		}
		total++
		if float64(gs.NumTracks()) > 1.34*float64(as.NumTracks()) {
			worse++
		}
	}
	if total > 0 && worse > total/2 {
		t.Errorf("greedy exceeded 1.34x annealed area on %d/%d instances", worse, total)
	}
}

func TestSolveInvariantsProperty(t *testing.T) {
	f := func(nRaw uint8, rateRaw, kthRaw uint8, seed int64) bool {
		n := 1 + int(nRaw%24)
		rate := float64(rateRaw%90) / 100
		kth := 0.3 + float64(kthRaw%120)/100
		in := testInstance(n, rate, kth, seed)
		sol, chk := Solve(in)
		if chk.Structural != nil {
			return false
		}
		// Every segment placed exactly once.
		if sol.NumTracks()-sol.NumShields() != n {
			return false
		}
		// Verification must be deterministic and agree with itself.
		chk2 := in.verify(sol, nil)
		return chk.Feasible() == chk2.Feasible() && len(chk.Over) == len(chk2.Over)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	model := keff.NewModel(tech.Default())
	sens := func(a, b int) bool { return false }
	cases := []struct {
		name string
		in   Instance
	}{
		{"no sensitivity", Instance{Model: model, Segs: []Seg{{Net: 0, Kth: 1}}}},
		{"no model", Instance{Sensitive: sens, Segs: []Seg{{Net: 0, Kth: 1}}}},
		{"bad kth", Instance{Sensitive: sens, Model: model, Segs: []Seg{{Net: 0, Kth: 0}}}},
		{"bad rate", Instance{Sensitive: sens, Model: model, Segs: []Seg{{Net: 0, Kth: 1, Rate: 2}}}},
		{"NaN kth", Instance{Sensitive: sens, Model: model, Segs: []Seg{{Net: 0, Kth: math.NaN()}}}},
		{"+Inf kth", Instance{Sensitive: sens, Model: model, Segs: []Seg{{Net: 0, Kth: math.Inf(1)}}}},
		{"NaN rate", Instance{Sensitive: sens, Model: model, Segs: []Seg{{Net: 0, Kth: 1, Rate: math.NaN()}}}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

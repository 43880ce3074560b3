package sino

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/keff"
	"repro/internal/tech"
)

// polishReference is the polish pass as it ran before the fail-fast
// removal probe: every probe is a full evaluator edit (removeAt) judged
// by the maintained feasibility counters and undone by rollback. It is
// the oracle TestPolishMatchesReference holds tryRemoveShield to.
func (e *Eval) polishReference() {
	if !e.Feasible() {
		return
	}
	for pass := 0; pass < 2; pass++ {
		removed := false
		for t := len(e.tracks) - 1; t >= 0; t-- {
			if e.tracks[t] != Shield {
				continue
			}
			e.mark()
			e.removeAt(t)
			if e.Feasible() {
				removed = true
			} else {
				e.rollback()
			}
		}
		if !removed {
			return
		}
	}
}

// paddedSolution returns a capacitively clean solution of in carrying
// extra redundant shields: a random order with a shield between every
// sensitive adjacency, then extra shields at random positions.
func paddedSolution(in *Instance, extra int, rng *rand.Rand) *Solution {
	var tracks []int
	for _, v := range rng.Perm(len(in.Segs)) {
		if len(tracks) > 0 {
			if last := tracks[len(tracks)-1]; last != Shield && in.sensitiveSegs(last, v) {
				tracks = append(tracks, Shield)
			}
		}
		tracks = append(tracks, v)
	}
	for i := 0; i < extra; i++ {
		at := rng.Intn(len(tracks) + 1)
		tracks = append(tracks, 0)
		copy(tracks[at+1:], tracks[at:])
		tracks[at] = Shield
	}
	return &Solution{Tracks: tracks}
}

// boundTo sets every bound at or above the segment's total under s, so s
// is feasible: tight segments, drawn at random, get their total exactly,
// so that removing a shield breaks a bound wherever it raises one of
// them, and the rest up to slack times their total more.
func boundTo(in *Instance, s *Solution, tight int, slack float64, rng *rand.Rand) {
	k := in.TotalK(s)
	for i, seg := range rng.Perm(len(in.Segs)) {
		kth := k[seg]
		if i >= tight {
			kth *= 1 + slack*rng.Float64()
		}
		if !(kth > 0) {
			kth = math.SmallestNonzeroFloat64
		}
		in.Segs[seg].Kth = kth
	}
}

// TestPolishMatchesReference runs the fail-fast polish and the
// mark/remove/rollback reference from the same padded feasible solutions
// and requires the same tracks, the same totals bit for bit, the same
// counters and the same EvalStats. A few exact bounds among loose ones
// make probes fail near the cut, far from it, on a new sensitive
// adjacency alone, and not at all; n reaches past the ±61-track window,
// and the 260-segment instances are wider than the window at every cut.
func TestPolishMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 70, 89, 130, 260}
	if testing.Short() {
		sizes = []int{1, 2, 5, 21, 70, 130, 260}
	}
	for _, n := range sizes {
		for _, rate := range []float64{0.3, 0.6} {
			for _, tight := range []int{0, 1, 3, n / 2} {
				seed := int64(n*100) + int64(rate*10) + int64(tight)*7
				in := testInstance(n, rate, 1, seed)
				rng := rand.New(rand.NewSource(seed))
				for _, slack := range []float64{0.5, 20} {
					for rep := 0; rep < 2; rep++ {
						s := paddedSolution(in, 1+rng.Intn(n/2+2), rng)
						boundTo(in, s, tight, slack, rng)
						name := fmt.Sprintf("n=%d rate=%g tight=%d slack=%g rep=%d", n, rate, tight, slack, rep)
						comparePolish(t, in, s, name)
					}
				}
			}
		}
	}
}

// TestProbeScansWholeWindow pins the probe's scan to AffectedRange, not
// the pair cutoff. Removing a shield moves the return path of wires up to bg
// tracks away, and so their couplings to partners a full cutoff further
// out. Here the only sensitive pair is B, 2 tracks right of the shield,
// and A, 48 tracks (the cutoff) right of B. After the cut A sits 49
// tracks away, its total rises, and it is the only segment at its bound:
// only a scan that reaches it rejects the removal.
func TestProbeScansWholeWindow(t *testing.T) {
	const n, a, b = 60, 58, 57 // segment indices of A and B
	in := &Instance{
		Sensitive: func(x, y int) bool { return x == a && y == b || x == b && y == a },
		Model:     keff.NewModel(tech.Default()),
	}
	for i := 0; i < n; i++ {
		in.Segs = append(in.Segs, Seg{Net: i, Kth: 1, Rate: 0.5})
	}
	tracks := []int{0, Shield, 1, b}
	for f := 2; f <= 48; f++ {
		tracks = append(tracks, f)
	}
	tracks = append(tracks, a)
	for f := 49; f < b; f++ {
		tracks = append(tracks, f)
	}
	s := &Solution{Tracks: append(tracks, n-1)}
	if _, hi := in.Model.AffectedRange(keff.Layout{Tracks: make([]keff.Track, 200)}, 0); hi != 61 {
		t.Fatalf("window reaches %d tracks past a cut, want 61 (cutoff 48 + bg 12 + 1)", hi)
	}
	in.Segs[a].Kth = in.TotalK(s)[a]

	ref := NewEval()
	ref.Bind(in)
	if err := ref.Load(s); err != nil {
		t.Fatal(err)
	}
	ref.polishReference()
	if ref.nShields != 1 {
		t.Fatal("the reference polish removed the shield: the fixture no longer breaks A's bound")
	}
	comparePolish(t, in, s, "far bound")
}

// comparePolish polishes s both ways on fresh evaluators and compares
// everything the evaluator maintains.
func comparePolish(t *testing.T, in *Instance, s *Solution, name string) {
	t.Helper()
	ref, got := NewEval(), NewEval()
	for _, e := range []*Eval{ref, got} {
		e.Bind(in)
		if err := e.Load(s); err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !e.Feasible() {
			t.Fatalf("%s: padded solution is not feasible", name)
		}
	}
	ref.polishReference()
	got.polish()
	if !reflect.DeepEqual(got.tracks, ref.tracks) {
		t.Fatalf("%s: tracks differ:\nprobe     %v\nreference %v", name, got.tracks, ref.tracks)
	}
	for i := range in.Segs {
		if math.Float64bits(got.k[i]) != math.Float64bits(ref.k[i]) {
			t.Fatalf("%s: segment %d total %v, reference %v", name, i, got.k[i], ref.k[i])
		}
	}
	if got.capPairs != ref.capPairs || got.nShields != ref.nShields || got.nOver != ref.nOver {
		t.Fatalf("%s: counters (cap %d, shields %d, over %d), reference (%d, %d, %d)", name,
			got.capPairs, got.nShields, got.nOver, ref.capPairs, ref.nShields, ref.nOver)
	}
	if got.Stats() != ref.Stats() {
		t.Fatalf("%s: stats %+v, reference %+v", name, got.Stats(), ref.Stats())
	}
	assertEvalMatchesVerify(t, in, got, name)
}

// TestRelationValidate pins Validate's size check on Instance.Rel.
func TestRelationValidate(t *testing.T) {
	in := testInstance(5, 0.5, 0.7, 1)
	in.Rel = NewRelation(in.Segs, in.Sensitive)
	if err := in.Validate(); err != nil {
		t.Fatalf("matching relation rejected: %v", err)
	}
	for _, m := range []int{0, 4, 6} {
		segs := make([]Seg, m)
		for i := range segs {
			segs[i] = Seg{Net: i, Kth: 1}
		}
		in.Rel = NewRelation(segs, in.Sensitive)
		if err := in.Validate(); err == nil {
			t.Errorf("relation over %d segments accepted for a 5-segment instance", m)
		}
	}
}

// TestRelationMatchesSensitive requires solves and repairs bound through
// a snapshot relation to equal the same calls that consult Sensitive per
// pair, including on a pooled evaluator that alternates between the two.
func TestRelationMatchesSensitive(t *testing.T) {
	ev := NewEval()
	for seed := int64(0); seed < 8; seed++ {
		in := testInstance(3+int(seed)*7, 0.5, 0.6, seed)
		snap := *in
		snap.Rel = NewRelation(in.Segs, in.Sensitive)
		wantSol, wantChk := Solve(in)
		gotSol, gotChk := SolveWith(ev, &snap)
		if !reflect.DeepEqual(gotSol, wantSol) || !reflect.DeepEqual(gotChk, wantChk) {
			t.Fatalf("seed %d: solve with a relation differs:\nwith    %v\nwithout %v", seed, gotSol.Tracks, wantSol.Tracks)
		}

		tight := func(base *Instance) *Instance {
			c := *base
			c.Segs = append([]Seg(nil), base.Segs...)
			for i := range c.Segs {
				c.Segs[i].Kth *= 0.7
			}
			return &c
		}
		ws, gs := cloneSolution(wantSol), cloneSolution(gotSol)
		wantRep := RepairWith(ev, tight(in), ws, wantChk.K)
		gotRep := RepairWith(ev, tight(&snap), gs, gotChk.K)
		if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("seed %d: repair with a relation differs", seed)
		}
	}
}

// TestSharedRelationNeverWritten: the solvers read Instance.Rel in place
// and never write it. One relation serves two instances with different
// bounds. Solving, repairing, annealing, ordering and verifying on it
// leave its words those of a fresh snapshot. That holds with the calls
// split over two goroutines (the race detector sees any write), and each
// evaluator in between binds an instance with no relation, for which Bind
// must snapshot into fresh storage rather than into the relation it held.
func TestSharedRelationNeverWritten(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in := testInstance(10+int(seed)*17, 0.5, 0.6, seed)
		shared, want := NewRelation(in.Segs, in.Sensitive), NewRelation(in.Segs, in.Sensitive)
		loose, tight := *in, *in
		loose.Rel, tight.Rel = shared, shared
		tight.Segs = append([]Seg(nil), in.Segs...)
		for i := range tight.Segs {
			tight.Segs[i].Kth *= 0.5
		}
		other := testInstance(len(in.Segs)-3, 0.7, 0.6, seed+100)

		ev := NewEval()
		ev.Bind(&loose)
		if ev.Relation() != shared {
			t.Fatalf("seed %d: Bind did not point at the instance's relation", seed)
		}
		ev.Bind(other)
		if got := ev.Relation(); got == shared || !reflect.DeepEqual(got, NewRelation(other.Segs, other.Sensitive)) {
			t.Fatalf("seed %d: Bind without a relation did not snapshot a fresh one", seed)
		}

		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ev := NewEval()
				sol, chk := SolveWith(ev, &loose)
				SolveWith(ev, other)
				RepairWith(ev, &tight, sol, chk.K)
				SolveWith(ev, other)
				AnnealWith(ev, &tight, AnnealOptions{Seed: seed, Iterations: 200})
				NetOrderOnly(&loose)
				tight.verify(sol, nil)
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(shared, want) {
			t.Fatalf("seed %d: a solve wrote the shared relation", seed)
		}
	}
}

// TestRepairWithHeldTotalsMatchesRepair requires a repair started from
// held totals to equal the one-shot Repair, which sums them from
// scratch, and pins RepairWith's refusal of totals for another size.
func TestRepairWithHeldTotalsMatchesRepair(t *testing.T) {
	ev := NewEval()
	for seed := int64(0); seed < 6; seed++ {
		in := testInstance(4+int(seed)*9, 0.4, 0.6, seed)
		sol, chk := Solve(in)
		tight := *in
		tight.Segs = append([]Seg(nil), in.Segs...)
		for i := range tight.Segs {
			tight.Segs[i].Kth *= 0.6
		}
		ws, gs := cloneSolution(sol), cloneSolution(sol)
		want := Repair(&tight, ws)
		got := RepairWith(ev, &tight, gs, chk.K)
		if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: repair from held totals differs:\nheld  %v\nfresh %v", seed, gs.Tracks, ws.Tracks)
		}
	}

	in := testInstance(4, 0.5, 0.7, 1)
	sol, chk := Solve(in)
	defer func() {
		if recover() == nil {
			t.Fatal("RepairWith accepted totals for 3 of 4 segments")
		}
	}()
	RepairWith(ev, in, sol, chk.K[:3])
}

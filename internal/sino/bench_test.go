package sino

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/keff"
	"repro/internal/tech"
)

// benchSizes are the kernel-level instance sizes: small enough that one
// region solve is microseconds, the regime Phases II and III live in. 64
// is past the average instance of a dense full-chip run (about 55
// segments on ibm01 at scale 4, rate 0.5).
var benchSizes = []int{8, 16, 32, 64}

// benchInstance builds a deterministic instance for kernel benchmarks. A
// loose-ish bound keeps the solver in its typical regime: a handful of
// shield insertions followed by a polish pass that removes some of them.
func benchInstance(n int, rate, kth float64) *Instance {
	rng := rand.New(rand.NewSource(int64(n)*1009 + 7))
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = rate
	}
	segs := make([]Seg, n)
	for i := range segs {
		segs[i] = Seg{Net: i, Kth: kth, Rate: rate}
	}
	in := &Instance{
		Segs:      segs,
		Sensitive: randomSensitivity(n, rates, rng),
		Model:     keff.NewModel(tech.Default()),
	}
	return in
}

// benchSolveBody measures one full greedy region solve — construct, shield
// repair, polish — on a pooled evaluator, the way every production call
// site (engine workers, the fit sweep) invokes it.
func benchSolveBody(b *testing.B, n int) {
	in := benchInstance(n, 0.4, 0.55)
	ev := NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveWith(ev, in)
	}
}

// benchRepairBody measures the shield-insertion-only re-solve used by
// Phase III pass 1: an existing solution whose bounds tightened a little,
// repaired from the totals its solve reported, as the engine does.
func benchRepairBody(b *testing.B, n int) {
	in := benchInstance(n, 0.4, 0.55)
	seed, chk := Solve(in)
	// Tighten every bound the way refinement does, so Repair has real
	// insertion work on each iteration.
	tight := &Instance{Segs: append([]Seg(nil), in.Segs...), Sensitive: in.Sensitive, Model: in.Model}
	for i := range tight.Segs {
		tight.Segs[i].Kth *= 0.7
	}
	ev := NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cloneSolution(seed)
		RepairWith(ev, tight, s, chk.K)
	}
}

// benchPolishBody isolates the shield-removal polish pass: a feasible
// solution padded with redundant shields, reloaded and polished per
// iteration. Pre-evaluator this was the solver's costliest stage — one
// full O(n²) verification per removal probe.
func benchPolishBody(b *testing.B, n int) {
	in := benchInstance(n, 0.4, 0.55)
	sol, _ := Solve(in)
	padded := cloneSolution(sol)
	for i := 0; i < 1+n/4; i++ {
		at := (i*7 + 3) % (len(padded.Tracks) + 1)
		padded.Tracks = append(padded.Tracks, 0)
		copy(padded.Tracks[at+1:], padded.Tracks[at:])
		padded.Tracks[at] = Shield
	}
	ev := NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bind + load + polish is the per-job shape an engine worker pays.
		ev.Bind(in)
		if err := ev.load(padded.Tracks, nil); err != nil {
			b.Fatal(err)
		}
		ev.polish()
	}
}

// kernelBenchFamilies maps family names to the bodies the Benchmark*
// entry points run.
var kernelBenchFamilies = []struct {
	name string
	body func(b *testing.B, n int)
}{
	{"solve", benchSolveBody},
	{"repair", benchRepairBody},
	{"polish", benchPolishBody},
}

func runKernelFamily(b *testing.B, body func(b *testing.B, n int)) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("segs%d", n), func(b *testing.B) { body(b, n) })
	}
}

// BenchmarkSINOSolve measures one full greedy region solve at kernel
// sizes.
func BenchmarkSINOSolve(b *testing.B) { runKernelFamily(b, benchSolveBody) }

// BenchmarkSINORepair measures the Phase III pass 1 re-solve.
func BenchmarkSINORepair(b *testing.B) { runKernelFamily(b, benchRepairBody) }

// BenchmarkSINOPolish measures the polish pass alone.
func BenchmarkSINOPolish(b *testing.B) { runKernelFamily(b, benchPolishBody) }

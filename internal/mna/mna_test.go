package mna

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// last returns the final sample of a probe trace.
func last(v []float64) float64 { return v[len(v)-1] }

func TestDenseFactorSolve(t *testing.T) {
	m := NewDense(3)
	vals := [][]float64{{4, -2, 1}, {-2, 4, -2}, {1, -2, 4}}
	for i := range vals {
		for j := range vals[i] {
			m.Add(i, j, vals[i][j])
		}
	}
	lu, err := m.Factor()
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	b := []float64{11, -16, 17}
	x := make([]float64, 3)
	lu.Solve(x, b)
	// Verify A·x = b.
	for i := 0; i < 3; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			s += vals[i][j] * x[j]
		}
		if !almostEqual(s, b[i], 1e-9) {
			t.Errorf("row %d: A·x = %g, want %g", i, s, b[i])
		}
	}
}

func TestDenseSingular(t *testing.T) {
	m := NewDense(2)
	m.Add(0, 0, 1)
	m.Add(0, 1, 2)
	m.Add(1, 0, 2)
	m.Add(1, 1, 4)
	if _, err := m.Factor(); err == nil {
		t.Fatal("Factor of singular matrix: want error, got nil")
	}
}

func TestDenseSolveRandomProperty(t *testing.T) {
	// Property: for any well-conditioned diagonally dominant matrix, solving
	// then multiplying back recovers the RHS.
	f := func(seed int64) bool {
		rng := newRand(seed)
		n := 2 + int(rng()*8)
		m := NewDense(n)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			sum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					a[i][j] = rng()*2 - 1
					sum += math.Abs(a[i][j])
				}
			}
			a[i][i] = sum + 1 + rng()
			for j, v := range a[i] {
				m.Add(i, j, v)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng()*10 - 5
		}
		lu, err := m.Factor()
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(x, b)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i][j] * x[j]
			}
			if !almostEqual(s, b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// newRand is a tiny deterministic PRNG (xorshift) so property tests don't
// need math/rand plumbing.
func newRand(seed int64) func() float64 {
	s := uint64(seed)*2685821657736338717 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1_000_000) / 1_000_000
	}
}

func TestWaveforms(t *testing.T) {
	r := Ramp{V0: 0, V1: 1, Start: 1e-9, Rise: 2e-9}
	cases := []struct{ t, want float64 }{
		{0, 0}, {1e-9, 0}, {2e-9, 0.5}, {3e-9, 1}, {10e-9, 1},
	}
	for _, c := range cases {
		if got := r.At(c.t); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Ramp.At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

// TestRCStepResponse checks the canonical first-order response:
// v(t) = V·(1 − e^{−t/RC}) for a series R driving a grounded C.
func TestRCStepResponse(t *testing.T) {
	c := NewCircuit()
	in := c.NewNode()
	out := c.NewNode()
	R, C, V := 1000.0, 1e-12, 1.0
	c.VSource(in, Ground, Ramp{V0: 0, V1: V, Start: 0, Rise: 1e-15})
	c.Resistor(in, out, R)
	c.Capacitor(out, Ground, C)

	tau := R * C
	h := tau / 200
	res, err := c.Transient(h, 2500, out)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	for k, tm := range res.Times {
		if tm < 2*h {
			continue // source still ramping
		}
		want := V * (1 - math.Exp(-tm/tau))
		if !almostEqual(res.V[0][k], want, 0.01*V) {
			t.Fatalf("t=%g: v=%g, want %g", tm, res.V[0][k], want)
		}
	}
	if final := last(res.V[0]); !almostEqual(final, V, 1e-3) {
		t.Errorf("final value %g, want %g", final, V)
	}
}

// TestLCResonance checks that a series RLC rings at ω = 1/sqrt(LC) by
// measuring the time of the first overshoot peak of the step response.
func TestLCResonance(t *testing.T) {
	c := NewCircuit()
	in := c.NewNode()
	mid := c.NewNode()
	out := c.NewNode()
	R, L, C := 1.0, 1e-9, 1e-12 // very underdamped: Q ≈ 31
	c.VSource(in, Ground, Ramp{V0: 0, V1: 1, Start: 0, Rise: 1e-15})
	c.Resistor(in, mid, R)
	c.Inductor(mid, out, L)
	c.Capacitor(out, Ground, C)

	period := 2 * math.Pi * math.Sqrt(L*C)
	h := period / 400
	res, err := c.Transient(h, 1200, out)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	// First peak of an underdamped step response occurs at t ≈ π/ωd ≈ period/2.
	peakT, peakV := 0.0, 0.0
	for k, v := range res.V[0] {
		if v > peakV {
			peakV, peakT = v, res.Times[k]
		}
		if res.Times[k] > 0.8*period {
			break
		}
	}
	if !almostEqual(peakT, period/2, 0.05*period) {
		t.Errorf("first peak at %g, want ≈ %g", peakT, period/2)
	}
	if peakV < 1.5 { // Q≈31 should overshoot to nearly 2.0
		t.Errorf("underdamped overshoot peak %g, want > 1.5", peakV)
	}
}

// TestMutualInductanceTransformer checks that a driven primary induces the
// expected polarity and magnitude of voltage on an open secondary:
// v2 ≈ k·sqrt(L2/L1)·v1 for a loosely loaded secondary.
func TestMutualInductanceTransformer(t *testing.T) {
	c := NewCircuit()
	in := c.NewNode()
	p := c.NewNode()
	s := c.NewNode()
	L1, L2, k := 1e-9, 1e-9, 0.5
	c.VSource(in, Ground, Ramp{V0: 0, V1: 1, Start: 0, Rise: 1e-12})
	c.Resistor(in, p, 10)
	l1 := c.Inductor(p, Ground, L1)
	l2 := c.Inductor(s, Ground, L2)
	c.Mutual(l1, l2, k)
	// Lightly load the secondary so its node isn't floating.
	c.Resistor(s, Ground, 1e6)

	res, err := c.Transient(1e-13, 300, p, s)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	// During the primary ramp, di1/dt > 0, so v2 = M·di1/dt should be
	// positive and a significant fraction of v1.
	maxP, _ := res.PeakAbs(0)
	maxS, _ := res.PeakAbs(1)
	if maxS <= 0.2*maxP {
		t.Errorf("secondary peak %g too small vs primary %g for k=%g", maxS, maxP, k)
	}
	if maxS > maxP {
		t.Errorf("secondary peak %g exceeds primary %g for k=%g < 1", maxS, maxP, k)
	}
}

// TestEnergyConservationRC: the charge delivered by the source equals the
// charge on the capacitor at the end (within integration tolerance).
func TestChargeBalanceRC(t *testing.T) {
	c := NewCircuit()
	in := c.NewNode()
	out := c.NewNode()
	R, C := 100.0, 1e-12
	c.VSource(in, Ground, Ramp{V0: 0, V1: 1, Start: 0, Rise: 1e-15})
	c.Resistor(in, out, R)
	c.Capacitor(out, Ground, C)
	h := R * C / 100
	res, err := c.Transient(h, 2000, in, out)
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	// Integrate resistor current (v_in − v_out)/R with the trapezoid rule.
	q := 0.0
	for k := 1; k < len(res.Times); k++ {
		i0 := (res.V[0][k-1] - res.V[1][k-1]) / R
		i1 := (res.V[0][k] - res.V[1][k]) / R
		q += (i0 + i1) / 2 * h
	}
	wantQ := C * last(res.V[1])
	if !almostEqual(q, wantQ, 0.02*wantQ) {
		t.Errorf("delivered charge %g, want %g", q, wantQ)
	}
}

func TestTransientArgumentValidation(t *testing.T) {
	c := NewCircuit()
	n := c.NewNode()
	c.Resistor(n, Ground, 1)
	c.VSource(n, Ground, Ramp{V1: 1})
	if _, err := c.Transient(-1, 10, n); err == nil {
		t.Error("negative timestep: want error")
	}
	if _, err := c.Transient(1e-12, 0, n); err == nil {
		t.Error("zero steps: want error")
	}
	if _, err := c.Transient(1e-12, 10, Node(99)); err == nil {
		t.Error("unknown probe: want error")
	}
}

func TestCircuitPanicsOnBadElements(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	c := NewCircuit()
	n := c.NewNode()
	mustPanic("negative R", func() { c.Resistor(n, Ground, -1) })
	mustPanic("zero C", func() { c.Capacitor(n, Ground, 0) })
	mustPanic("zero L", func() { c.Inductor(n, Ground, 0) })
	mustPanic("bad node", func() { c.Resistor(Node(50), Ground, 1) })
	mustPanic("nil waveform", func() { c.VSource(n, Ground, nil) })
	l1 := c.Inductor(n, Ground, 1e-9)
	l2 := c.Inductor(n, Ground, 1e-9)
	mustPanic("self mutual", func() { c.Mutual(l1, l1, 0.5) })
	mustPanic("k out of range", func() { c.Mutual(l1, l2, 1.0) })
}

func TestResultPeakHelpers(t *testing.T) {
	r := &Result{
		Times: []float64{0, 1, 2, 3},
		V:     [][]float64{{0, -5, 3, 1}},
	}
	peak, at := r.PeakAbs(0)
	if peak != 5 || at != 1 {
		t.Errorf("PeakAbs = (%g, %g), want (5, 1)", peak, at)
	}
}

func TestStats(t *testing.T) {
	c := NewCircuit()
	a := c.NewNode()
	b := c.NewNode()
	c.Resistor(a, b, 1)
	c.Capacitor(a, Ground, 1e-15)
	l1 := c.Inductor(a, b, 1e-9)
	l2 := c.Inductor(b, Ground, 1e-9)
	c.Mutual(l1, l2, 0.3)
	c.VSource(a, Ground, Ramp{V1: 1})
	s := c.Stats()
	want := Stats{Nodes: 3, Resistors: 1, Capacitors: 1, Inductors: 2, Mutuals: 1, VSources: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
}

package mna

import (
	"fmt"
	"math"
)

// Result holds the sampled output of a transient run: Times[k] is the time of
// sample k, and V[p][k] is the voltage of the p-th probe node at that time.
type Result struct {
	Times []float64
	V     [][]float64
}

// PeakAbs returns the maximum of |V[probe][k]| over all samples, and the time
// at which it occurs.
func (r *Result) PeakAbs(probe int) (peak, at float64) {
	for k, v := range r.V[probe] {
		if a := math.Abs(v); a > peak {
			peak, at = a, r.Times[k]
		}
	}
	return peak, at
}

// system is the assembled MNA problem: x = [node voltages 1..n-1, inductor
// currents, vsource currents].
type system struct {
	c       *Circuit
	n       int // total unknowns
	nv      int // node-voltage unknowns (nodes minus ground)
	indBase int // index of first inductor current
	vsBase  int // index of first vsource current
}

func (c *Circuit) buildSystem() *system {
	s := &system{c: c}
	s.nv = c.nodes - 1
	s.indBase = s.nv
	s.vsBase = s.nv + len(c.inductors)
	s.n = s.vsBase + len(c.vsrcs)
	for i := range c.inductors {
		c.inductors[i].idx = s.indBase + i
	}
	for i := range c.vsrcs {
		c.vsrcs[i].idx = s.vsBase + i
	}
	return s
}

// vi maps a node to its unknown index, or -1 for ground.
func vi(n Node) int { return int(n) - 1 }

// stampConductance adds conductance g between nodes a and b.
func stampConductance(m *Dense, a, b Node, g float64) {
	ia, ib := vi(a), vi(b)
	if ia >= 0 {
		m.Add(ia, ia, g)
	}
	if ib >= 0 {
		m.Add(ib, ib, g)
	}
	if ia >= 0 && ib >= 0 {
		m.Add(ia, ib, -g)
		m.Add(ib, ia, -g)
	}
}

// Transient runs a fixed-step trapezoidal transient analysis from the
// all-zero state (every node at 0 V, every inductor current 0 A). All source
// waveforms should therefore start at 0 at t=0; this matches the paper's
// noise experiments, where the victim is quiescent and the aggressors ramp
// from 0.
//
// h is the timestep in seconds, steps the number of steps, and probes the
// nodes whose voltages are recorded (ground is allowed and records zeros).
// The returned Result has steps+1 samples including t=0.
func (c *Circuit) Transient(h float64, steps int, probes ...Node) (*Result, error) {
	if h <= 0 {
		return nil, fmt.Errorf("mna: timestep must be positive, got %g", h)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("mna: step count must be positive, got %d", steps)
	}
	for _, p := range probes {
		if p < 0 || int(p) >= c.nodes {
			return nil, fmt.Errorf("mna: probe references unknown node %d", p)
		}
	}
	s := c.buildSystem()
	if s.n == 0 {
		return nil, fmt.Errorf("mna: empty circuit")
	}

	// Assemble the constant system matrix A for the trapezoidal companion
	// network. Unknown ordering: node voltages, inductor currents, vsource
	// currents.
	a := NewDense(s.n)
	for _, r := range c.resistors {
		stampConductance(a, r.a, r.b, r.g)
	}
	for _, cp := range c.caps {
		stampConductance(a, cp.a, cp.b, 2*cp.c/h)
	}
	for i, l := range c.inductors {
		ia, ib := vi(l.a), vi(l.b)
		row := s.indBase + i
		// KCL: branch current leaves a, enters b.
		if ia >= 0 {
			a.Add(ia, row, 1)
			a.Add(row, ia, 1)
		}
		if ib >= 0 {
			a.Add(ib, row, -1)
			a.Add(row, ib, -1)
		}
		// Branch eqn: v_a − v_b − (2L/h)·i = rhs (history).
		a.Add(row, row, -2*l.l/h)
	}
	for _, mu := range c.mutuals {
		ri := s.indBase + mu.i
		rj := s.indBase + mu.j
		a.Add(ri, rj, -2*mu.m/h)
		a.Add(rj, ri, -2*mu.m/h)
	}
	for i, v := range c.vsrcs {
		ia, ib := vi(v.a), vi(v.b)
		row := s.vsBase + i
		if ia >= 0 {
			a.Add(ia, row, 1)
			a.Add(row, ia, 1)
		}
		if ib >= 0 {
			a.Add(ib, row, -1)
			a.Add(row, ib, -1)
		}
	}
	lu, err := a.Factor()
	if err != nil {
		return nil, fmt.Errorf("mna: transient assembly: %w", err)
	}

	// State: previous solution vector and previous capacitor branch currents.
	x := make([]float64, s.n)            // previous solution (starts at zero state)
	rhs := make([]float64, s.n)          // right-hand side per step
	icap := make([]float64, len(c.caps)) // capacitor currents at previous step

	res := &Result{
		Times: make([]float64, 0, steps+1),
		V:     make([][]float64, len(probes)),
	}
	for p := range probes {
		res.V[p] = make([]float64, 0, steps+1)
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for p, node := range probes {
			v := 0.0
			if i := vi(node); i >= 0 {
				v = x[i]
			}
			res.V[p] = append(res.V[p], v)
		}
	}
	nodeV := func(n Node) float64 {
		if i := vi(n); i >= 0 {
			return x[i]
		}
		return 0
	}
	record(0)

	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		for i := range rhs {
			rhs[i] = 0
		}
		// Capacitor history: companion current source geq·v(t) + i(t) flowing
		// a→b in parallel with geq.
		for i, cp := range c.caps {
			geq := 2 * cp.c / h
			ieq := geq*(nodeV(cp.a)-nodeV(cp.b)) + icap[i]
			if ia := vi(cp.a); ia >= 0 {
				rhs[ia] += ieq
			}
			if ib := vi(cp.b); ib >= 0 {
				rhs[ib] -= ieq
			}
		}
		// Inductor history: −v(t) − (2L/h)·i(t) − Σ(2M/h)·i_k(t).
		for i, l := range c.inductors {
			row := s.indBase + i
			vPrev := nodeV(l.a) - nodeV(l.b)
			rhs[row] += -vPrev - (2*l.l/h)*x[l.idx]
		}
		for _, mu := range c.mutuals {
			ri := s.indBase + mu.i
			rj := s.indBase + mu.j
			rhs[ri] -= (2 * mu.m / h) * x[s.indBase+mu.j]
			rhs[rj] -= (2 * mu.m / h) * x[s.indBase+mu.i]
		}
		// Sources at the new time point.
		for i, v := range c.vsrcs {
			rhs[s.vsBase+i] = v.w.At(t)
		}

		prev := append([]float64(nil), x...)
		lu.Solve(x, rhs)

		// Update capacitor currents: i(t+h) = geq·(v(t+h) − v(t)) − i(t).
		nodeVAt := func(n Node, vec []float64) float64 {
			if i := vi(n); i >= 0 {
				return vec[i]
			}
			return 0
		}
		for i, cp := range c.caps {
			geq := 2 * cp.c / h
			vNew := nodeVAt(cp.a, x) - nodeVAt(cp.b, x)
			vOld := nodeVAt(cp.a, prev) - nodeVAt(cp.b, prev)
			icap[i] = geq*(vNew-vOld) - icap[i]
		}
		record(t)
	}
	return res, nil
}

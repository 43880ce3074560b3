package mna

import (
	"errors"
	"fmt"
)

// Dense is a square dense matrix in row-major order, sized for the MNA
// systems this package builds (a few hundred unknowns). The circuits solved
// here are time-invariant with a fixed step, so the matrix is factored once
// and reused for every timestep; a dense LU with partial pivoting is both
// simple and fast at this scale.
type Dense struct {
	n    int
	data []float64
}

// NewDense returns an n×n zero matrix.
func NewDense(n int) *Dense {
	if n <= 0 {
		panic(fmt.Sprintf("mna: matrix dimension must be positive, got %d", n))
	}
	return &Dense{n: n, data: make([]float64, n*n)}
}

// Add accumulates v into element (i, j). This is the stamping primitive.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.n+j] += v }

// LU holds an LU factorization with partial pivoting: PA = LU, stored packed
// in a single matrix (unit lower triangle implicit).
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
}

// ErrSingular is returned when factorization meets an (effectively) zero
// pivot, meaning the MNA system is singular — typically a floating node or a
// loop of ideal voltage sources.
var ErrSingular = errors.New("mna: singular matrix (floating node or voltage-source loop?)")

// Factor computes the LU factorization of m. m is not modified.
func (m *Dense) Factor() (*LU, error) {
	n := m.n
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, m.data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below diag.
		p := col
		max := abs(f.lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := abs(f.lu[r*n+col]); a > max {
				max, p = a, r
			}
		}
		if max < 1e-300 {
			return nil, fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if p != col {
			rowP := f.lu[p*n : p*n+n]
			rowC := f.lu[col*n : col*n+n]
			for k := range rowP {
				rowP[k], rowC[k] = rowC[k], rowP[k]
			}
			f.piv[p], f.piv[col] = f.piv[col], f.piv[p]
			f.sign = -f.sign
		}
		d := f.lu[col*n+col]
		for r := col + 1; r < n; r++ {
			l := f.lu[r*n+col] / d
			f.lu[r*n+col] = l
			if l == 0 {
				continue
			}
			rowR := f.lu[r*n+col+1 : r*n+n]
			rowC := f.lu[col*n+col+1 : col*n+n]
			for k := range rowR {
				rowR[k] -= l * rowC[k]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b in place: on return, x holds the solution. b is not
// modified. x and b must have length n; they may alias.
func (f *LU) Solve(x, b []float64) {
	n := f.n
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("mna: solve dimension mismatch: n=%d len(x)=%d len(b)=%d", n, len(x), len(b)))
	}
	// Apply permutation: y = P·b.
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := tmp[i]
		row := f.lu[i*n : i*n+i]
		for j, l := range row {
			s -= l * tmp[j]
		}
		tmp[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := tmp[i]
		row := f.lu[i*n+i+1 : i*n+n]
		for j, u := range row {
			s -= u * tmp[i+1+j]
		}
		tmp[i] = s / f.lu[i*n+i]
	}
	copy(x, tmp)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Package linalg provides the dense LU solvers shared by the circuit
// solvers (real transient, complex AC) and the electrostatic panel method.
//
// The factorization and the triangular solves are split (Factor /
// SolveFactored) so callers whose matrix changes rarely — the transient
// solver between commutations, any fixed-topology resolve — pay the
// O(n³) elimination once and the O(n²) resolve per right-hand side. The
// one-shot Solve convenience wrappers remain and are implemented on top
// of the split. Real and complex matrices share one elimination kernel,
// generic over the element type like the sparse LU.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
)

// ErrSingular reports a numerically singular matrix: at some elimination
// column every remaining pivot candidate was negligible relative to the
// column's original magnitude. Callers wrap it with their own context
// (the offending frequency or timestep) and match with errors.Is.
var ErrSingular = errors.New("singular matrix")

// pivotTol is the relative singularity threshold: a pivot is rejected
// when it is smaller than pivotTol times the largest original magnitude
// of its column. Scaling the check per column keeps it meaningful for
// the badly scaled MNA systems (Gmin-only columns at 1e-12 next to
// switch conductances at 1e2) where any absolute threshold is either
// blind or trigger-happy.
const pivotTol = 1e-13

// dense is a square matrix with a flat row-major backing slice.
type dense[T scalar] struct {
	N int
	V []T
}

// Real is a dense real matrix with a flat backing slice.
type Real = dense[float64]

// Complex is a dense complex matrix with a flat backing slice.
type Complex = dense[complex128]

// NewReal allocates an n×n zero matrix.
func NewReal(n int) *Real { return &Real{N: n, V: make([]float64, n*n)} }

// NewComplex allocates an n×n zero matrix.
func NewComplex(n int) *Complex { return &Complex{N: n, V: make([]complex128, n*n)} }

// At returns element (i, j).
func (m *dense[T]) At(i, j int) T { return m.V[i*m.N+j] }

// Set assigns element (i, j).
func (m *dense[T]) Set(i, j int, x T) { m.V[i*m.N+j] = x }

// Add accumulates into element (i, j).
func (m *dense[T]) Add(i, j int, x T) { m.V[i*m.N+j] += x }

// Factor performs in-place LU decomposition of m with partial pivoting,
// recording the factors and pivot permutation in f. The matrix contents
// are destroyed (they become the packed L and U factors).
func (m *dense[T]) Factor(f *denseLU[T]) error { return f.factor(m.N, m.V) }

// Solve performs in-place LU decomposition with partial pivoting and solves
// m·x = b. The matrix contents are destroyed; b is not modified.
func (m *dense[T]) Solve(b []T) ([]T, error) {
	if len(b) != m.N {
		return nil, fmt.Errorf("linalg: dimension mismatch %d vs %d", len(b), m.N)
	}
	var f denseLU[T]
	if err := m.Factor(&f); err != nil {
		return nil, err
	}
	x := make([]T, m.N)
	if err := f.SolveFactored(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// denseLU is the LU factorization of a dense matrix with partial
// pivoting. Factor eliminates in place, so the factors borrow the
// matrix's backing slice: the matrix must not be reassembled while the
// factorization is in use. The pivot and column-scale scratch is owned
// by the factorization and reused across Factor calls; after the first
// use the factor/resolve cycle performs no allocations.
type denseLU[T scalar] struct {
	n     int
	lu    []T
	piv   []int
	scale []float64
}

// RealLU is the LU factorization of a Real matrix.
type RealLU = denseLU[float64]

// ComplexLU is the LU factorization of a Complex matrix.
type ComplexLU = denseLU[complex128]

// scaleAbs is the magnitude behind the column scales: |v| for reals and
// the 1-norm |re|+|im| for complex values. The scale is only a reference
// for the relative pivot threshold, and the 1-norm (within √2 of the
// modulus) avoids a hypot per matrix entry on every factorization.
func scaleAbs[T scalar](v T) float64 {
	switch x := any(v).(type) {
	case float64:
		return math.Abs(x)
	case complex128:
		return math.Abs(real(x)) + math.Abs(imag(x))
	}
	return 0
}

// factor eliminates the n×n row-major matrix v in place.
//
// MNA matrices are mostly exact zeros, and the kernel skips them without
// changing a bit of the factors: a zero can never beat the running
// pivot magnitude (which starts at |diagonal| ≥ 0), and a zero below the
// pivot yields a zero multiplier, which the elimination already skipped,
// as long as 0/pivot is itself zero. Only a NaN pivot breaks that, so
// its column takes every division. The one difference left is the sign
// of a stored zero multiplier, which no solve reads.
func (f *denseLU[T]) factor(n int, v []T) error {
	f.n = n
	f.lu = v
	if cap(f.piv) < n {
		f.piv = make([]int, n)
		f.scale = make([]float64, n)
	}
	f.piv, f.scale = f.piv[:n], f.scale[:n]
	scale := f.scale
	engine.CountFactor()
	clear(scale)
	for i := 0; i < n; i++ {
		for j, e := range v[i*n : i*n+n] {
			if e != 0 {
				if a := scaleAbs(e); a > scale[j] {
					scale[j] = a
				}
			}
		}
	}
	for col := 0; col < n; col++ {
		best, bestAbs := col, absScalar(v[col*n+col])
		for r := col + 1; r < n; r++ {
			if e := v[r*n+col]; e != 0 {
				if a := absScalar(e); a > bestAbs {
					best, bestAbs = r, a
				}
			}
		}
		if bestAbs == 0 || bestAbs < pivotTol*scale[col] {
			return fmt.Errorf("linalg: %w at column %d (pivot %g, column scale %g)",
				ErrSingular, col, bestAbs, scale[col])
		}
		f.piv[col] = best
		prow := v[col*n : col*n+n]
		if best != col {
			brow := v[best*n : best*n+n]
			for j := range prow {
				prow[j], brow[j] = brow[j], prow[j]
			}
		}
		piv := prow[col]
		skipZero := 0/piv == 0
		urow := prow[col+1:]
		for r := col + 1; r < n; r++ {
			e := v[r*n+col]
			if e == 0 && skipZero {
				continue
			}
			fac := e / piv
			v[r*n+col] = fac
			if fac == 0 {
				continue
			}
			rrow := v[r*n+col+1 : r*n+n]
			rrow = rrow[:len(urow)]
			for j, u := range urow {
				rrow[j] -= fac * u
			}
		}
	}
	return nil
}

// SolveFactored solves A·x = b against the retained factorization. b is
// not modified (unless x aliases it); x receives the solution. The
// resolve path allocates nothing.
func (f *denseLU[T]) SolveFactored(b, x []T) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: dimension mismatch %d/%d vs %d", len(b), len(x), n)
	}
	engine.CountResolve()
	copy(x, b)
	// The stored multipliers are post-permutation (row swaps during the
	// elimination moved them along with their rows), so the whole pivot
	// permutation must be applied to x before forward substitution.
	for col, p := range f.piv {
		if p != col {
			x[col], x[p] = x[p], x[col]
		}
	}
	// Forward substitution row by row over contiguous L rows. Each x[r]
	// receives the same subtractions in the same ascending-column order
	// as a column sweep, so the result is bit for bit the same.
	for r := 1; r < n; r++ {
		lrow := f.lu[r*n : r*n+r]
		xs := x[:len(lrow)]
		s := x[r]
		for j, l := range lrow {
			if l != 0 {
				s -= l * xs[j]
			}
		}
		x[r] = s
	}
	for i := n - 1; i >= 0; i-- {
		urow := f.lu[i*n+i+1 : i*n+n]
		xs := x[i+1:]
		xs = xs[:len(urow)]
		s := x[i]
		for j, u := range urow {
			s -= u * xs[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return nil
}

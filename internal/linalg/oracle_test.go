package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The textbook dense kernels the generic zero-aware one replaced, kept
// with their arithmetic unchanged as the bit-identity reference: no
// zero skipping, a column sweep for forward substitution, one copy per
// element type. factorRefReal / factorRefComplex eliminate v in place
// and return the pivot permutation; solveRef* resolve against the
// packed factors.

func factorRefReal(n int, v []float64) ([]int, error) {
	piv := make([]int, n)
	scale := make([]float64, n)
	at := func(i, j int) float64 { return v[i*n+j] }
	for i := 0; i < n; i++ {
		row := v[i*n : i*n+n]
		for j, e := range row {
			if a := math.Abs(e); a > scale[j] {
				scale[j] = a
			}
		}
	}
	for col := 0; col < n; col++ {
		best, bestAbs := col, math.Abs(at(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(at(r, col)); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if bestAbs == 0 || bestAbs < pivotTol*scale[col] {
			return nil, fmt.Errorf("linalg: %w at column %d (pivot %g, column scale %g)",
				ErrSingular, col, bestAbs, scale[col])
		}
		piv[col] = best
		if best != col {
			for j := 0; j < n; j++ {
				v[col*n+j], v[best*n+j] = v[best*n+j], v[col*n+j]
			}
		}
		p := at(col, col)
		for r := col + 1; r < n; r++ {
			fac := at(r, col) / p
			v[r*n+col] = fac
			if fac == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				v[r*n+j] -= fac * v[col*n+j]
			}
		}
	}
	return piv, nil
}

func solveRefReal(n int, lu []float64, piv []int, b []float64) []float64 {
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		if p := piv[col]; p != col {
			x[col], x[p] = x[p], x[col]
		}
	}
	for col := 0; col < n; col++ {
		for r := col + 1; r < n; r++ {
			if fac := lu[r*n+col]; fac != 0 {
				x[r] -= fac * x[col]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= lu[i*n+j] * x[j]
		}
		x[i] = sum / lu[i*n+i]
	}
	return x
}

func factorRefComplex(n int, v []complex128) ([]int, error) {
	piv := make([]int, n)
	scale := make([]float64, n)
	at := func(i, j int) complex128 { return v[i*n+j] }
	for i := 0; i < n; i++ {
		row := v[i*n : i*n+n]
		for j, e := range row {
			if a := math.Abs(real(e)) + math.Abs(imag(e)); a > scale[j] {
				scale[j] = a
			}
		}
	}
	for col := 0; col < n; col++ {
		best, bestAbs := col, cmplx.Abs(at(col, col))
		for r := col + 1; r < n; r++ {
			if a := cmplx.Abs(at(r, col)); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if bestAbs == 0 || bestAbs < pivotTol*scale[col] {
			return nil, fmt.Errorf("linalg: %w at column %d (pivot %g, column scale %g)",
				ErrSingular, col, bestAbs, scale[col])
		}
		piv[col] = best
		if best != col {
			for j := 0; j < n; j++ {
				v[col*n+j], v[best*n+j] = v[best*n+j], v[col*n+j]
			}
		}
		p := at(col, col)
		for r := col + 1; r < n; r++ {
			fac := at(r, col) / p
			v[r*n+col] = fac
			if fac == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				v[r*n+j] -= fac * v[col*n+j]
			}
		}
	}
	return piv, nil
}

func solveRefComplex(n int, lu []complex128, piv []int, b []complex128) []complex128 {
	x := append([]complex128(nil), b...)
	for col := 0; col < n; col++ {
		if p := piv[col]; p != col {
			x[col], x[p] = x[p], x[col]
		}
	}
	for col := 0; col < n; col++ {
		for r := col + 1; r < n; r++ {
			if fac := lu[r*n+col]; fac != 0 {
				x[r] -= fac * x[col]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= lu[i*n+j] * x[j]
		}
		x[i] = sum / lu[i*n+i]
	}
	return x
}

// sameBits reports whether x and y are the same bit pattern (complex
// values part by part), so ±0 and NaN payloads count as different.
func sameBits[T scalar](x, y T) bool {
	switch a := any(x).(type) {
	case float64:
		return math.Float64bits(a) == math.Float64bits(any(y).(float64))
	case complex128:
		b := any(y).(complex128)
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	return false
}

// matchOracle factors a copy of the n×n matrix a with the kernel and
// with the reference, and resolves every right-hand side in rhs against
// both. The errors must carry the same text; on success the pivots, U
// and every nonzero multiplier must agree bit for bit (a stored zero
// multiplier may differ in sign only: no solve reads it), and so must
// every solution entry.
func matchOracle[T scalar](n int, a []T, rhs [][]T,
	refFactor func(int, []T) ([]int, error),
	refSolve func(int, []T, []int, []T) []T) error {
	got := &dense[T]{N: n, V: append([]T(nil), a...)}
	var f denseLU[T]
	err := got.Factor(&f)
	ref := append([]T(nil), a...)
	piv, refErr := refFactor(n, ref)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		return fmt.Errorf("error %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	for i, p := range piv {
		if f.piv[i] != p {
			return fmt.Errorf("pivot %d: %d, reference %d", i, f.piv[i], p)
		}
	}
	var zero T
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g, w := got.V[i*n+j], ref[i*n+j]
			if j < i && g == zero && w == zero {
				continue
			}
			if !sameBits(g, w) {
				return fmt.Errorf("factor (%d,%d): %v, reference %v", i, j, g, w)
			}
		}
	}
	x := make([]T, n)
	for k, b := range rhs {
		if err := f.SolveFactored(b, x); err != nil {
			return err
		}
		want := refSolve(n, ref, piv, b)
		for i := range x {
			if !sameBits(x[i], want[i]) {
				return fmt.Errorf("rhs %d: x[%d] = %v, reference %v", k, i, x[i], want[i])
			}
		}
	}
	return nil
}

// drawMatrix draws an n×n matrix of density 5–100%: nonzeros from val,
// structural zeros of either sign from zero. Half the draws fill the
// diagonal (mostly regular matrices); one in four zeroes a whole column
// or copies a row (exactly and numerically singular matrices).
func drawMatrix[T scalar](rng *rand.Rand, n int, val func() T, zero func() T) []T {
	density := 0.05 + 0.95*rng.Float64()
	a := make([]T, n*n)
	for i := range a {
		if rng.Float64() < density {
			a[i] = val()
		} else {
			a[i] = zero()
		}
	}
	if rng.Intn(2) == 0 {
		for i := 0; i < n; i++ {
			if a[i*n+i] == 0 {
				a[i*n+i] = val()
			}
		}
	}
	switch c, r := rng.Intn(n), rng.Intn(n); rng.Intn(8) {
	case 0:
		for i := 0; i < n; i++ {
			a[i*n+c] = zero()
		}
	case 1:
		copy(a[c*n:c*n+n], a[r*n:r*n+n])
	}
	return a
}

// TestDenseKernelMatchesOracle is the bit-identity property of the
// zero-aware generic kernel: over random real and complex matrices of
// every density, including ±0 entries, exact-zero columns and singular
// matrices, it reproduces the textbook kernel's error text, pivots,
// factors and solutions bit for bit.
func TestDenseKernelMatchesOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 64, 100, 127, 200, 320}
	for i := 0; i < 60; i++ {
		sizes = append(sizes, 1+rng.Intn(48))
	}
	// Magnitudes spread over twelve decades like MNA stamps, with the
	// ±1 incidence entries that tie in the pivot search.
	mag := func() float64 {
		if rng.Intn(4) == 0 {
			return float64(2*rng.Intn(2) - 1)
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	signedZero := func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }
	realVal := mag
	complexVal := func() complex128 {
		switch rng.Intn(4) {
		case 0:
			return complex(mag(), signedZero())
		case 1:
			return complex(signedZero(), mag())
		}
		return complex(mag(), mag())
	}
	complexZero := func() complex128 { return complex(signedZero(), signedZero()) }
	for _, n := range sizes {
		ar := drawMatrix(rng, n, realVal, signedZero)
		br := [][]float64{make([]float64, n), make([]float64, n)}
		for i := range br[0] {
			br[0][i], br[1][i] = realVal(), float64(i%3)
		}
		if err := matchOracle(n, ar, br, factorRefReal, solveRefReal); err != nil {
			t.Fatalf("real n=%d: %v", n, err)
		}
		ac := drawMatrix(rng, n, complexVal, complexZero)
		bc := [][]complex128{make([]complex128, n), make([]complex128, n)}
		for i := range bc[0] {
			bc[0][i], bc[1][i] = complexVal(), complex(0, float64(i%2))
		}
		if err := matchOracle(n, ac, bc, factorRefComplex, solveRefComplex); err != nil {
			t.Fatalf("complex n=%d: %v", n, err)
		}
	}
}

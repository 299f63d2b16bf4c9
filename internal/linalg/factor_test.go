package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestErrSingularTyped(t *testing.T) {
	t.Parallel()
	m := NewReal(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	_, err := m.Solve([]float64{1, 2})
	if !errors.Is(err, ErrSingular) {
		t.Errorf("real: error %v is not ErrSingular", err)
	}
	if err == nil || !strings.Contains(err.Error(), "column") {
		t.Errorf("real: error %v lacks the column context", err)
	}

	c := NewComplex(2)
	c.Set(0, 0, complex(1, 1))
	c.Set(0, 1, complex(2, 2))
	c.Set(1, 0, complex(3, 3))
	c.Set(1, 1, complex(6, 6))
	if _, err := c.Solve([]complex128{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("complex: error %v is not ErrSingular", err)
	}
}

// TestScaleAwareSingularity: a rank-deficient matrix with large entries
// leaves only a roundoff-sized pivot after elimination. An absolute
// threshold (the old 1e-30) is blind to it; the relative check catches it.
func TestScaleAwareSingularity(t *testing.T) {
	t.Parallel()
	// Row 2 = Row 1 / 3, up to representation error: elimination leaves a
	// pivot around 1e-9·scale, far below any meaningful value but far
	// above 1e-30.
	m := NewReal(2)
	m.Set(0, 0, 3e8)
	m.Set(0, 1, 1e8)
	m.Set(1, 0, 1e8)
	m.Set(1, 1, 1e8/3)
	_, err := m.Solve([]float64{1, 1})
	if !errors.Is(err, ErrSingular) {
		t.Errorf("near-singular large-scale matrix not detected: %v", err)
	}
}

// TestTinyWellScaledColumnNotSingular: a column whose honest magnitude is
// tiny (a Gmin-only node at 1e-12) must factor fine — the check is
// relative to the column's own scale, not the matrix's.
func TestTinyWellScaledColumnNotSingular(t *testing.T) {
	t.Parallel()
	m := NewReal(2)
	m.Set(0, 0, 1e-12)
	m.Set(1, 1, 1e7)
	x, err := m.Solve([]float64{1e-12, 1e7})
	if err != nil {
		t.Fatalf("well-scaled tiny column rejected: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Errorf("x = %v, want [1 1]", x)
	}
}

// TestFactorResolveReuse: one factorization serves many right-hand sides,
// each solution checked against the original matrix.
func TestFactorResolveReuse(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	n := 12
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	m := &Real{N: n, V: append([]float64(nil), a...)}
	var f RealLU
	if err := m.Factor(&f); err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	x := make([]float64, n)
	for trial := 0; trial < 10; trial++ {
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := f.SolveFactored(b, x); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a[i*n+j] * x[j]
			}
			if math.Abs(sum-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d: residual row %d = %v", trial, i, sum-b[i])
			}
		}
	}
}

// TestSolveFactoredMatchesSolve: the split path and the one-shot wrapper
// must produce bitwise-identical solutions (Solve is implemented on the
// split, and the figures depend on that staying true).
func TestSolveFactoredMatchesSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		m1 := &Real{N: n, V: append([]float64(nil), a...)}
		want, err := m1.Solve(b)
		if err != nil {
			continue
		}
		m2 := &Real{N: n, V: append([]float64(nil), a...)}
		var f RealLU
		if err := m2.Factor(&f); err != nil {
			t.Fatalf("trial %d: Solve ok but Factor failed: %v", trial, err)
		}
		x := make([]float64, n)
		if err := f.SolveFactored(b, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if x[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %v != %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestSolveFactoredDimensionMismatch(t *testing.T) {
	t.Parallel()
	m := NewReal(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	var f RealLU
	if err := m.Factor(&f); err != nil {
		t.Fatal(err)
	}
	if err := f.SolveFactored([]float64{1}, []float64{0, 0}); err == nil {
		t.Error("short b should error")
	}
	if err := f.SolveFactored([]float64{1, 2}, []float64{0}); err == nil {
		t.Error("short x should error")
	}
}

// TestFactorResolveAllocFree pins the scratch-reuse contract: once a
// factorization has been used, refactoring and resolving allocate
// nothing, for both element types.
func TestFactorResolveAllocFree(t *testing.T) {
	c := []complex128{4, 1, 0, 1, complex(5, 1), 2, 0, 2, 6}
	mc := &Complex{N: 3, V: make([]complex128, len(c))}
	var fc ComplexLU
	bc, xc := []complex128{1, 2, 3}, make([]complex128, 3)
	r := []float64{4, 1, 0, 1, 5, 2, 0, 2, 6}
	mr := &Real{N: 3, V: make([]float64, len(r))}
	var fr RealLU
	br, xr := []float64{1, 2, 3}, make([]float64, 3)
	cycle := func() {
		copy(mc.V, c)
		copy(mr.V, r)
		if mc.Factor(&fc) != nil || fc.SolveFactored(bc, xc) != nil ||
			mr.Factor(&fr) != nil || fr.SolveFactored(br, xr) != nil {
			t.Fatal("factor/resolve failed")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("factor/resolve cycle allocates %v times", n)
	}
}

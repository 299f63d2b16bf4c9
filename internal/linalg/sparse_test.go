package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSystem generates a strictly diagonally dominant n×n system as a
// flat stamp stream (duplicates included, exercising slot accumulation)
// plus per-entry real values. Diagonal dominance keeps the system
// nonsingular and well-conditioned, so dense and sparse backends must
// both succeed and agree.
func randomSystem(n int, density float64, rng *rand.Rand) (flat []int, vals []float64) {
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= density {
				continue
			}
			v := rng.Float64()*2 - 1
			flat = append(flat, i*n+j)
			vals = append(vals, v)
			rowAbs[i] += math.Abs(v)
			if rng.Float64() < 0.1 { // duplicate stamp on the same cell
				w := rng.Float64()*2 - 1
				flat = append(flat, i*n+j)
				vals = append(vals, w)
				rowAbs[i] += math.Abs(w)
			}
		}
	}
	for i := 0; i < n; i++ {
		flat = append(flat, i*n+i)
		vals = append(vals, rowAbs[i]+1+rng.Float64())
	}
	return flat, vals
}

func assembleBoth(n int, flat []int, vals []float64) (*Real, *SparseReal, []int32) {
	d := NewReal(n)
	pat, slots := NewPatternFromFlat(n, flat)
	s := NewSparseReal(pat)
	for p, idx := range flat {
		d.V[idx] += vals[p]
		s.V[slots[p]] += vals[p]
	}
	return d, s, slots
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		scale := math.Max(math.Max(math.Abs(a[i]), math.Abs(b[i])), 1e-30)
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func TestSparseRealVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 17, 40, 120} {
		for _, density := range []float64{0.02, 0.1, 0.5} {
			flat, vals := randomSystem(n, density, rng)
			d, s, _ := assembleBoth(n, flat, vals)

			var dlu RealLU
			if err := d.Factor(&dlu); err != nil {
				t.Fatalf("n=%d dense factor: %v", n, err)
			}
			var slu SparseRealLU
			if err := s.Factor(&slu); err != nil {
				t.Fatalf("n=%d sparse factor: %v", n, err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.Float64()*2 - 1
			}
			xd := make([]float64, n)
			xs := make([]float64, n)
			if err := dlu.SolveFactored(b, xd); err != nil {
				t.Fatalf("dense solve: %v", err)
			}
			if err := slu.SolveFactored(b, xs); err != nil {
				t.Fatalf("sparse solve: %v", err)
			}
			if d := maxRelDiff(xd, xs); d > 1e-9 {
				t.Fatalf("n=%d density=%g: sparse and dense disagree by %g", n, density, d)
			}
		}
	}
}

func TestSparseComplexVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 60
	flat, vals := randomSystem(n, 0.08, rng)
	d := NewComplex(n)
	pat, slots := NewPatternFromFlat(n, flat)
	s := NewSparseComplex(pat)
	for p, idx := range flat {
		// Give every entry an imaginary part too (an MNA G + jωB stamp).
		v := complex(vals[p], 0.3*vals[p])
		d.V[idx] += v
		s.V[slots[p]] += v
	}
	var dlu ComplexLU
	if err := d.Factor(&dlu); err != nil {
		t.Fatalf("dense factor: %v", err)
	}
	var slu SparseComplexLU
	if err := s.Factor(&slu); err != nil {
		t.Fatalf("sparse factor: %v", err)
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	xd := make([]complex128, n)
	xs := make([]complex128, n)
	if err := dlu.SolveFactored(b, xd); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	if err := slu.SolveFactored(b, xs); err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	for i := range xd {
		scale := math.Max(math.Max(absScalar(xd[i]), absScalar(xs[i])), 1e-30)
		if absScalar(xd[i]-xs[i])/scale > 1e-9 {
			t.Fatalf("component %d: dense %v sparse %v", i, xd[i], xs[i])
		}
	}
}

// TestSparseRefactorReuse drives the numeric-replay path: a second
// Factor on the same pattern must keep the symbolic structure (no
// regrowth of the factor arrays) and still match the dense answer for
// the new values.
func TestSparseRefactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 80
	flat, vals := randomSystem(n, 0.06, rng)
	_, s, slots := assembleBoth(n, flat, vals)

	var slu SparseRealLU
	if err := s.Factor(&slu); err != nil {
		t.Fatalf("first factor: %v", err)
	}
	lnz0, unz0 := slu.FactorNnz()

	// New values on the same pattern, as a frequency sweep would produce.
	for sweep := 0; sweep < 5; sweep++ {
		d2 := NewReal(n)
		s.Zero()
		for p, idx := range flat {
			v := vals[p] * (1 + 0.5*rng.Float64())
			d2.V[idx] += v
			s.V[slots[p]] += v
		}
		if err := s.Factor(&slu); err != nil {
			t.Fatalf("refactor %d: %v", sweep, err)
		}
		if lnz, unz := slu.FactorNnz(); lnz != lnz0 || unz != unz0 {
			t.Fatalf("refactor %d changed structure: L %d->%d, U %d->%d", sweep, lnz0, lnz, unz0, unz)
		}
		var dlu RealLU
		if err := d2.Factor(&dlu); err != nil {
			t.Fatalf("dense factor: %v", err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()
		}
		xd := make([]float64, n)
		xs := make([]float64, n)
		if err := dlu.SolveFactored(b, xd); err != nil {
			t.Fatal(err)
		}
		if err := slu.SolveFactored(b, xs); err != nil {
			t.Fatal(err)
		}
		if diff := maxRelDiff(xd, xs); diff > 1e-9 {
			t.Fatalf("refactor %d disagrees with dense by %g", sweep, diff)
		}
	}
}

// TestSparseRepivotFallback decays the value under a retained pivot to
// zero (keeping the system nonsingular through its off-diagonals) and
// checks that Factor transparently re-pivots instead of failing.
func TestSparseRepivotFallback(t *testing.T) {
	// 2×2 with dominant diagonal first: pivots land on the diagonal.
	flat := []int{0, 1, 2, 3} // cells (0,0) (0,1) (1,0) (1,1)
	pat, slots := NewPatternFromFlat(2, flat)
	s := NewSparseReal(pat)
	set := func(v ...float64) {
		s.Zero()
		for p := range flat {
			s.V[slots[p]] = v[p]
		}
	}
	set(4, 1, 1, 4)
	var slu SparseRealLU
	if err := s.Factor(&slu); err != nil {
		t.Fatalf("initial factor: %v", err)
	}
	if err := s.Factor(&slu); err != nil { // replay path, same values
		t.Fatalf("refactor: %v", err)
	}
	// Zero the (0,0) pivot; matrix [[0,1],[1,4]] is still nonsingular but
	// the retained diagonal pivot order cannot factor it.
	set(0, 1, 1, 4)
	if err := s.Factor(&slu); err != nil {
		t.Fatalf("factor after pivot decay: %v", err)
	}
	b := []float64{1, 0}
	x := make([]float64, 2)
	if err := slu.SolveFactored(b, x); err != nil {
		t.Fatal(err)
	}
	// [[0,1],[1,4]] x = [1,0] → x = [-4, 1].
	if math.Abs(x[0]+4) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("wrong solution after re-pivot: %v", x)
	}
}

// TestSparseReplayFromIgnoresHistory: after ReplayFrom(base), a
// factorization replays base's pivot order even when the receiving LU
// re-pivoted on other values before, so its bits match a fresh replay.
func TestSparseReplayFromIgnoresHistory(t *testing.T) {
	flat := []int{0, 1, 2, 3} // cells (0,0) (0,1) (1,0) (1,1)
	pat, slots := NewPatternFromFlat(2, flat)
	m := NewSparseComplex(pat)
	set := func(v ...complex128) {
		m.Zero()
		for p := range flat {
			m.V[slots[p]] = v[p]
		}
	}
	var base, used, fresh SparseComplexLU
	set(4, 1, 1, 4) // diagonal pivots
	if err := m.Factor(&base); err != nil {
		t.Fatal(err)
	}
	set(0, 1, 1, 4) // forces the off-diagonal pivot in used's history
	if err := m.Factor(&used); err != nil {
		t.Fatal(err)
	}
	vals := []complex128{0.3 + 0.7i, 1.1 - 0.2i, 0.9 + 0.4i, 2.5 - 1.3i}
	solve := func(f *SparseComplexLU) []complex128 {
		f.ReplayFrom(&base)
		set(vals...)
		if err := m.Factor(f); err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, 2)
		if err := f.SolveFactored([]complex128{1, 1i}, x); err != nil {
			t.Fatal(err)
		}
		return x
	}
	got, want := solve(&used), solve(&fresh)
	if got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("replay after a re-pivot %v, fresh replay %v", got, want)
	}
}

// TestSparseSingularParity checks that the sparse backend reports the
// same typed ErrSingular as the dense one on structurally and
// numerically singular systems.
func TestSparseSingularParity(t *testing.T) {
	cases := []struct {
		name string
		n    int
		flat []int
		vals []float64
	}{
		{"duplicate-rows", 3,
			[]int{0, 1, 3, 4, 6, 7, 8},
			[]float64{1, 2, 1, 2, 1, 1, 1}}, // rows 0 and 1 identical
		{"zero-column", 2, []int{0, 2}, []float64{1, 1}}, // column 1 empty
		{"zero-matrix", 2, []int{0, 3}, []float64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, s, _ := assembleBoth(tc.n, tc.flat, tc.vals)
			var dlu RealLU
			derr := d.Factor(&dlu)
			var slu SparseRealLU
			serr := s.Factor(&slu)
			if !errors.Is(derr, ErrSingular) {
				t.Fatalf("dense: want ErrSingular, got %v", derr)
			}
			if !errors.Is(serr, ErrSingular) {
				t.Fatalf("sparse: want ErrSingular, got %v", serr)
			}
		})
	}
}

func TestSparseSolveAlias(t *testing.T) {
	flat := []int{0, 1, 2, 3}
	pat, slots := NewPatternFromFlat(2, flat)
	s := NewSparseReal(pat)
	for p, v := range []float64{3, 1, 1, 3} {
		s.V[slots[p]] = v
	}
	var slu SparseRealLU
	if err := s.Factor(&slu); err != nil {
		t.Fatal(err)
	}
	b := []float64{4, 4}
	if err := slu.SolveFactored(b, b); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-1) > 1e-12 {
		t.Fatalf("aliased solve wrong: %v", b)
	}
}

func TestPatternDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	flat, _ := randomSystem(50, 0.1, rng)
	p1, s1 := NewPatternFromFlat(50, flat)
	p2, s2 := NewPatternFromFlat(50, flat)
	if p1.Nnz() != p2.Nnz() {
		t.Fatalf("nnz differs: %d vs %d", p1.Nnz(), p2.Nnz())
	}
	for i := range p1.q {
		if p1.q[i] != p2.q[i] {
			t.Fatalf("elimination order not deterministic at %d: %d vs %d", i, p1.q[i], p2.q[i])
		}
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("slots not deterministic at %d", i)
		}
	}
}

func TestChooseSparse(t *testing.T) {
	cases := []struct {
		mode SolverMode
		n    int
		nnz  int
		want bool
	}{
		{ModeDense, 100000, 100, false},           // forced dense
		{ModeSparse, 2, 4, true},                  // forced sparse
		{ModeAuto, SparseAutoMinN - 1, 10, false}, // below the size floor
		{ModeAuto, 256, 256 * 8, true},            // large and sparse
		{ModeAuto, 256, 256 * 256, false},         // large but dense
		{ModeAuto, 1024, 1024 * 10, true},
	}
	for _, tc := range cases {
		if got := ChooseSparse(tc.mode, tc.n, tc.nnz); got != tc.want {
			t.Errorf("ChooseSparse(%v, %d, %d) = %v, want %v", tc.mode, tc.n, tc.nnz, got, tc.want)
		}
	}
}

func TestParseSolverMode(t *testing.T) {
	for in, want := range map[string]SolverMode{
		"": ModeAuto, "auto": ModeAuto, "dense": ModeDense, "sparse": ModeSparse,
	} {
		got, err := ParseSolverMode(in)
		if err != nil || got != want {
			t.Errorf("ParseSolverMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSolverMode("qr"); err == nil {
		t.Error("ParseSolverMode(qr) should fail")
	}
	if ModeAuto.String() != "auto" || ModeDense.String() != "dense" || ModeSparse.String() != "sparse" {
		t.Error("SolverMode.String mismatch with flag spellings")
	}
}

func TestDefaultSolverRoundTrip(t *testing.T) {
	prev := SetDefaultSolver(ModeSparse)
	defer SetDefaultSolver(prev)
	if DefaultSolver() != ModeSparse {
		t.Fatal("SetDefaultSolver did not take")
	}
}

// FuzzSparseFactor cross-checks the sparse backend against the dense
// reference on fuzzer-chosen sparsity patterns and values, including a
// refactorization with perturbed values on the retained symbolic
// analysis.
func FuzzSparseFactor(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10))
	f.Add(int64(7), uint8(3), uint8(50))
	f.Add(int64(42), uint8(120), uint8(2))
	f.Add(int64(-9), uint8(64), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densRaw uint8) {
		n := 1 + int(nRaw)%64
		density := 0.01 + float64(densRaw%100)/100
		rng := rand.New(rand.NewSource(seed))
		flat, vals := randomSystem(n, density, rng)
		d, s, slots := assembleBoth(n, flat, vals)

		var dlu RealLU
		derr := d.Factor(&dlu)
		var slu SparseRealLU
		serr := s.Factor(&slu)
		if derr != nil || serr != nil {
			// Diagonally dominant systems must factor in both backends.
			t.Fatalf("factor failed: dense %v, sparse %v", derr, serr)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		xd := make([]float64, n)
		xs := make([]float64, n)
		if err := dlu.SolveFactored(b, xd); err != nil {
			t.Fatal(err)
		}
		if err := slu.SolveFactored(b, xs); err != nil {
			t.Fatal(err)
		}
		if diff := maxRelDiff(xd, xs); diff > 1e-8 {
			t.Fatalf("n=%d density=%.2f: backends disagree by %g", n, density, diff)
		}

		// Refactor with perturbed values on the same pattern.
		d2 := NewReal(n)
		s.Zero()
		for p, idx := range flat {
			v := vals[p] * (1 + 0.25*rng.Float64())
			d2.V[idx] += v
			s.V[slots[p]] += v
		}
		var dlu2 RealLU
		if err := d2.Factor(&dlu2); err != nil {
			t.Fatal(err)
		}
		if err := s.Factor(&slu); err != nil {
			t.Fatalf("refactor: %v", err)
		}
		if err := dlu2.SolveFactored(b, xd); err != nil {
			t.Fatal(err)
		}
		if err := slu.SolveFactored(b, xs); err != nil {
			t.Fatal(err)
		}
		if diff := maxRelDiff(xd, xs); diff > 1e-8 {
			t.Fatalf("n=%d density=%.2f: refactor disagrees by %g", n, density, diff)
		}
	})
}

// Sparse LU: compressed-sparse-column storage factored by the classic
// left-looking Gilbert–Peierls algorithm with threshold partial pivoting
// (the KLU/SuperLU family). The expensive symbolic work — the fill-in
// pattern of L and U, the per-column topological reach sets and the row
// pivot order — is computed by the first Factor and *reused* by every
// subsequent Factor on the same Pattern: a numeric refactorization is a
// straight replay of stored positions with no graph traversal and no
// allocation, which is exactly the shape of an MNA frequency sweep
// (fixed stamp pattern, new values per frequency). A pivot that decays
// below the relative singularity threshold during a replay triggers a
// transparent full re-factorization with fresh pivoting.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/engine"
)

// scalar is the element domain shared by the real and complex backends.
type scalar interface {
	float64 | complex128
}

// absScalar returns |v| for either element type; the complex branch uses
// the modulus (pivot choice wants true magnitude, unlike the cheap
// 1-norm used for dense column scales).
func absScalar[T scalar](v T) float64 {
	switch x := any(v).(type) {
	case float64:
		return math.Abs(x)
	case complex128:
		return cmplx.Abs(x)
	}
	return 0
}

// diagPrefTol is the threshold-pivoting relaxation: the natural diagonal
// row is kept as pivot whenever its magnitude is within this factor of
// the column maximum. Diagonal pivots preserve the near-symmetric MNA
// structure the minimum-degree ordering was computed for, so fill-in
// stays close to the symbolic prediction across refactorizations.
const diagPrefTol = 0.1

// errRepivot reports that a numeric refactorization met a pivot that
// has become negligible under the retained pivot order; the caller
// re-runs a full factorization with fresh pivoting.
var errRepivot = fmt.Errorf("linalg: retained pivot order decayed")

// spLU is the shared factorization engine behind SparseRealLU and
// SparseComplexLU.
type spLU[T scalar] struct {
	n   int
	pat *Pattern // pattern the symbolic analysis belongs to

	// Factors, CSC per elimination column k. L carries a unit diagonal
	// as its first entry; U stores its diagonal (the pivot) last.
	lp, up []int32
	liOrig []int32 // L row indices in original row space (refactor scatter)
	liPiv  []int32 // the same rows in pivot space (triangular solves)
	ui     []int32 // U row indices in pivot space
	lx, ux []T

	// Symbolic state retained for replay.
	patPtr []int32 // per-column reach-set pointers
	patRow []int32 // reach sets, original rows, dependency order
	pinv   []int32 // original row -> pivot position
	pivRow []int32 // per column: original row chosen as pivot
	scale  []float64

	// Scratch.
	x       []T
	y       []T
	visited []bool
	stk     []int32
	ptr     []int32
	topoBuf []int32

	haveSymbolic bool
	// from is the factorization whose symbolic analysis f currently
	// holds a copy of (see resetTo); nil once f has pivoted on its own.
	from *spLU[T]
}

// factorAuto numerically (re)factorizes the values av laid out on pat:
// a replay of the retained symbolic analysis when the pattern matches,
// a full symbolic+numeric factorization otherwise (or when the retained
// pivot order has decayed).
func (f *spLU[T]) factorAuto(pat *Pattern, av []T) error {
	engine.CountFactorSparse()
	if f.haveSymbolic && f.pat == pat {
		err := f.refactor(av)
		if err != errRepivot {
			return err
		}
	}
	return f.factorFull(pat, av)
}

func (f *spLU[T]) init(pat *Pattern) {
	n := pat.N
	f.n = n
	f.pat = pat
	if cap(f.x) < n {
		f.x = make([]T, n)
		f.y = make([]T, n)
		f.visited = make([]bool, n)
		f.pinv = make([]int32, n)
		f.pivRow = make([]int32, n)
		f.scale = make([]float64, n)
		f.stk = make([]int32, 0, n)
		f.ptr = make([]int32, 0, n)
	}
	f.x = f.x[:n]
	f.y = f.y[:n]
	f.visited = f.visited[:n]
	f.pinv = f.pinv[:n]
	f.pivRow = f.pivRow[:n]
	f.scale = f.scale[:n]
}

// factorFull runs the symbolic+numeric left-looking factorization with
// threshold partial pivoting, recording every structure the replay path
// needs.
func (f *spLU[T]) factorFull(pat *Pattern, av []T) error {
	f.haveSymbolic = false
	f.from = nil
	f.init(pat)
	n := f.n
	for i := range f.x {
		f.x[i] = 0
		f.visited[i] = false
		f.pinv[i] = -1
	}
	f.lp = append(f.lp[:0], 0)
	f.up = append(f.up[:0], 0)
	f.patPtr = append(f.patPtr[:0], 0)
	f.liOrig = f.liOrig[:0]
	f.ui = f.ui[:0]
	f.lx = f.lx[:0]
	f.ux = f.ux[:0]
	f.patRow = f.patRow[:0]
	x := f.x

	for k := 0; k < n; k++ {
		col := pat.q[k]
		// Column scale for the relative singularity threshold, from the
		// original values like the dense kernel.
		sc := 0.0
		for p := pat.ColPtr[col]; p < pat.ColPtr[col+1]; p++ {
			if a := absScalar(av[p]); a > sc {
				sc = a
			}
		}
		f.scale[k] = sc

		// Symbolic: rows reachable from A(:,col) through the columns of L,
		// in dependency (reverse postorder) order.
		topo := f.reach(pat, col)
		f.patRow = append(f.patRow, topo...)
		f.patPtr = append(f.patPtr, int32(len(f.patRow)))

		// Numeric: sparse triangular solve x = L \ A(:,col).
		for p := pat.ColPtr[col]; p < pat.ColPtr[col+1]; p++ {
			x[pat.RowIdx[p]] = av[p]
		}
		for _, i := range topo {
			j := f.pinv[i]
			if j < 0 {
				continue
			}
			xj := x[i] // L diagonal is 1, no division
			if xj != 0 {
				for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
					x[f.liOrig[p]] -= f.lx[p] * xj
				}
			}
		}

		// Pivot: largest magnitude among not-yet-pivotal rows, relaxed
		// toward the natural diagonal within diagPrefTol.
		ipiv, amax := int32(-1), -1.0
		for _, i := range topo {
			if f.pinv[i] < 0 {
				if t := absScalar(x[i]); t > amax {
					amax, ipiv = t, i
				}
			}
		}
		if ipiv < 0 || amax == 0 || amax < pivotTol*sc {
			f.clearColumn(topo)
			return fmt.Errorf("linalg: %w at column %d (pivot %g, column scale %g)",
				ErrSingular, col, math.Max(amax, 0), sc)
		}
		if f.pinv[col] < 0 && absScalar(x[col]) >= diagPrefTol*amax {
			ipiv = col
		}
		pivot := x[ipiv]

		// U(:,k): eliminated rows in reach order, diagonal last.
		for _, i := range topo {
			if j := f.pinv[i]; j >= 0 {
				f.ui = append(f.ui, j)
				f.ux = append(f.ux, x[i])
			}
		}
		f.ui = append(f.ui, int32(k))
		f.ux = append(f.ux, pivot)
		f.up = append(f.up, int32(len(f.ui)))

		f.pinv[ipiv] = int32(k)
		f.pivRow[k] = ipiv

		// L(:,k): unit diagonal first, then the remaining rows scaled.
		f.liOrig = append(f.liOrig, ipiv)
		f.lx = append(f.lx, 1)
		for _, i := range topo {
			if f.pinv[i] < 0 {
				f.liOrig = append(f.liOrig, i)
				f.lx = append(f.lx, x[i]/pivot)
			}
		}
		f.lp = append(f.lp, int32(len(f.liOrig)))

		f.clearColumn(topo)
	}

	// Pivot-space copies of L's row indices for the triangular solves.
	f.liPiv = append(f.liPiv[:0], f.liOrig...)
	for p := range f.liPiv {
		f.liPiv[p] = f.pinv[f.liPiv[p]]
	}
	f.haveSymbolic = true
	return nil
}

// resetTo makes f hold a copy of base's symbolic analysis, so the next
// factorAuto replays base's pivot order whatever f factored before. It
// is a no-op while f still holds that copy (no repivot since).
func (f *spLU[T]) resetTo(base *spLU[T]) {
	if f.from == base {
		return
	}
	f.from = base
	f.haveSymbolic = base.haveSymbolic
	if !base.haveSymbolic {
		return
	}
	f.init(base.pat)
	f.lp = append(f.lp[:0], base.lp...)
	f.up = append(f.up[:0], base.up...)
	f.liOrig = append(f.liOrig[:0], base.liOrig...)
	f.liPiv = append(f.liPiv[:0], base.liPiv...)
	f.ui = append(f.ui[:0], base.ui...)
	f.lx = append(f.lx[:0], base.lx...)
	f.ux = append(f.ux[:0], base.ux...)
	f.patPtr = append(f.patPtr[:0], base.patPtr...)
	f.patRow = append(f.patRow[:0], base.patRow...)
	copy(f.pinv, base.pinv)
	copy(f.pivRow, base.pivRow)
}

func (f *spLU[T]) clearColumn(topo []int32) {
	for _, i := range topo {
		f.x[i] = 0
		f.visited[i] = false
	}
}

// refactor replays the retained symbolic analysis against new values:
// same reach sets, same pivot rows, same L/U positions — value updates
// only. Returns errRepivot when a retained pivot has decayed below the
// singularity threshold.
func (f *spLU[T]) refactor(av []T) error {
	pat := f.pat
	x := f.x
	for k := 0; k < f.n; k++ {
		col := pat.q[k]
		sc := 0.0
		topo := f.patRow[f.patPtr[k]:f.patPtr[k+1]]
		for _, i := range topo {
			x[i] = 0
		}
		for p := pat.ColPtr[col]; p < pat.ColPtr[col+1]; p++ {
			if a := absScalar(av[p]); a > sc {
				sc = a
			}
			x[pat.RowIdx[p]] = av[p]
		}
		f.scale[k] = sc

		upos := f.up[k]
		for _, i := range topo {
			j := f.pinv[i]
			if j >= int32(k) {
				continue
			}
			xj := x[i]
			f.ux[upos] = xj
			upos++
			if xj != 0 {
				for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
					x[f.liOrig[p]] -= f.lx[p] * xj
				}
			}
		}

		pr := f.pivRow[k]
		pivot := x[pr]
		if a := absScalar(pivot); a == 0 || a < pivotTol*sc {
			for _, i := range topo {
				x[i] = 0
			}
			return errRepivot
		}
		f.ux[upos] = pivot

		lpos := f.lp[k] + 1 // retained unit diagonal
		for _, i := range topo {
			if f.pinv[i] > int32(k) {
				f.lx[lpos] = x[i] / pivot
				lpos++
			}
			x[i] = 0
		}
	}
	return nil
}

// reach returns the rows reachable from the structural nonzeros of
// A(:,col) through the graph of L, in dependency order (reverse
// postorder of the depth-first search). Marks traversed rows visited;
// the caller clears them via clearColumn.
func (f *spLU[T]) reach(pat *Pattern, col int32) []int32 {
	topo := f.topoBuf[:0]
	for p := pat.ColPtr[col]; p < pat.ColPtr[col+1]; p++ {
		if r := pat.RowIdx[p]; !f.visited[r] {
			topo = f.dfs(r, topo)
		}
	}
	f.topoBuf = topo
	for a, b := 0, len(topo)-1; a < b; a, b = a+1, b-1 {
		topo[a], topo[b] = topo[b], topo[a]
	}
	return topo
}

// dfs runs one iterative depth-first search from root, appending rows in
// postorder. Edges lead from an eliminated row to the rows of its L
// column (the rows its elimination updates).
func (f *spLU[T]) dfs(root int32, topo []int32) []int32 {
	stk := append(f.stk[:0], root)
	ptr := append(f.ptr[:0], 0)
	f.visited[root] = true
	for len(stk) > 0 {
		i := stk[len(stk)-1]
		j := f.pinv[i]
		descended := false
		if j >= 0 {
			for p := f.lp[j] + 1 + ptr[len(ptr)-1]; p < f.lp[j+1]; p++ {
				if r := f.liOrig[p]; !f.visited[r] {
					f.visited[r] = true
					ptr[len(ptr)-1] = p + 1 - (f.lp[j] + 1)
					stk = append(stk, r)
					ptr = append(ptr, 0)
					descended = true
					break
				}
			}
		}
		if !descended {
			topo = append(topo, i)
			stk = stk[:len(stk)-1]
			ptr = ptr[:len(ptr)-1]
		}
	}
	f.stk, f.ptr = stk, ptr
	return topo
}

// solve resolves one right-hand side against the retained factors:
// row-permute, unit-lower solve, upper solve, column-permute back.
// Allocation-free; x may alias b.
func (f *spLU[T]) solve(b, x []T) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: dimension mismatch %d/%d vs %d", len(b), len(x), n)
	}
	if !f.haveSymbolic {
		return fmt.Errorf("linalg: sparse solve before factorization")
	}
	engine.CountResolveSparse()
	y := f.y
	for i := 0; i < n; i++ {
		y[f.pinv[i]] = b[i]
	}
	for k := 0; k < n; k++ {
		if yk := y[k]; yk != 0 {
			for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
				y[f.liPiv[p]] -= f.lx[p] * yk
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		y[k] /= f.ux[f.up[k+1]-1]
		if yk := y[k]; yk != 0 {
			for p := f.up[k]; p < f.up[k+1]-1; p++ {
				y[f.ui[p]] -= f.ux[p] * yk
			}
		}
	}
	for k := 0; k < n; k++ {
		x[f.pat.q[k]] = y[k]
	}
	return nil
}

// factorNnz returns the retained factor sizes (structural nonzeros of L
// and U) — the fill-in measure the auto heuristic and the benchmarks
// report.
func (f *spLU[T]) factorNnz() (lnz, unz int) { return len(f.liOrig), len(f.ui) }

// SparseReal is a real matrix on a shared immutable Pattern; only the
// values array is per-instance, so sweep workers share one symbolic
// pattern and own their numbers.
type SparseReal struct {
	Pat *Pattern
	V   []float64
}

// NewSparseReal allocates a zero matrix on the pattern.
func NewSparseReal(p *Pattern) *SparseReal {
	return &SparseReal{Pat: p, V: make([]float64, p.Nnz())}
}

// Zero resets every stored value (the pattern is immutable).
func (m *SparseReal) Zero() {
	for i := range m.V {
		m.V[i] = 0
	}
}

// Factor (re)factorizes m into f. Unlike the dense kernel the matrix
// values are not destroyed; f retains its symbolic analysis across calls
// on the same pattern and replays it (see package comment).
func (m *SparseReal) Factor(f *SparseRealLU) error { return f.lu.factorAuto(m.Pat, m.V) }

// SparseRealLU is the sparse factorization of a SparseReal; it
// implements RealFactorizer.
type SparseRealLU struct {
	lu spLU[float64]
}

// SolveFactored solves A·x = b against the retained factorization
// without allocating; x may alias b.
func (f *SparseRealLU) SolveFactored(b, x []float64) error { return f.lu.solve(b, x) }

// FactorNnz returns the structural nonzero counts of the L and U factors.
func (f *SparseRealLU) FactorNnz() (lnz, unz int) { return f.lu.factorNnz() }

// SparseComplex is the complex counterpart of SparseReal.
type SparseComplex struct {
	Pat *Pattern
	V   []complex128
}

// NewSparseComplex allocates a zero matrix on the pattern.
func NewSparseComplex(p *Pattern) *SparseComplex {
	return &SparseComplex{Pat: p, V: make([]complex128, p.Nnz())}
}

// Zero resets every stored value.
func (m *SparseComplex) Zero() {
	for i := range m.V {
		m.V[i] = 0
	}
}

// Factor (re)factorizes m into f; see SparseReal.Factor.
func (m *SparseComplex) Factor(f *SparseComplexLU) error { return f.lu.factorAuto(m.Pat, m.V) }

// SparseComplexLU is the sparse factorization of a SparseComplex; it
// implements ComplexFactorizer.
type SparseComplexLU struct {
	lu spLU[complex128]
}

// ReplayFrom makes the next Factor into f replay base's symbolic
// analysis — its pivot order — instead of whatever f last factored. A
// sweep that calls it before every point gets results that depend only
// on base and that point's values: a repivot at one point does not
// carry over to the next, so the bits do not depend on which worker
// solved which points before. base must not be refactored meanwhile.
func (f *SparseComplexLU) ReplayFrom(base *SparseComplexLU) { f.lu.resetTo(&base.lu) }

// SolveFactored solves A·x = b against the retained factorization
// without allocating; x may alias b.
func (f *SparseComplexLU) SolveFactored(b, x []complex128) error { return f.lu.solve(b, x) }

// FactorNnz returns the structural nonzero counts of the L and U factors.
func (f *SparseComplexLU) FactorNnz() (lnz, unz int) { return f.lu.factorNnz() }

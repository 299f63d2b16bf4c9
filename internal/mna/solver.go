// Package mna implements frequency-domain circuit analysis by modified
// nodal analysis with complex arithmetic. Inductors and voltage sources
// contribute branch-current unknowns (group 2), which lets mutual
// inductances — the PEEC coupling results — be stamped directly, exactly as
// the paper inserts coupling factors between circuit inductances.
//
// The MNA matrix is affine in frequency, M(ω) = G + jω·B: every stamp is
// either frequency-independent (conductances, branch incidence) or scales
// linearly with ω (capacitors, inductors, mutual couplings). NewAnalyzer
// therefore walks the netlist once and compiles flat stamp plans — index/
// value lists for G and B plus right-hand-side source slots — so each
// per-frequency assembly is a single fused pass into a reusable buffer
// with no map lookups and no allocation. The plan entries are emitted in
// the exact order the old netlist walk stamped them, which keeps the
// floating-point sums (and therefore every figure) bit-for-bit identical.
package mna

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Gmin is the conductance added from every node to ground to keep
// matrices well-conditioned in the presence of floating subcircuits.
const Gmin = 1e-12

// planEntry is one precompiled matrix stamp: a flat buffer index and a
// value. Entries on the G plan add v to the real part of the cell;
// entries on the B plan add ω·v to the imaginary part.
type planEntry struct {
	idx int
	v   float64
}

// srcSlot is one precompiled right-hand-side contribution of an
// independent source: src indexes the Analyzer's sources, whose phasor at
// a sweep point is the element's own excitation unless the sweep's Drive
// overrides it.
type srcSlot struct {
	row      int
	negative bool
	src      int
}

// Drive sets the source phasors of sweep point i: src holds one value per
// independent source (see SourceIndex), preset to each element's own
// excitation at the point's frequency, and Drive overwrites the entries it
// drives. It runs on the sweep's workers concurrently and must only read
// shared state.
type Drive func(i int, src []complex128)

// Analyzer prepares a circuit for repeated AC solves. The compiled stamp
// plans are immutable during solves; the solve scratch (assembly buffer,
// factorization, solution) is reused call to call, so an Analyzer is not
// safe for concurrent use — its sweeps fan out internally with
// per-worker scratch against the one compiled plan set.
type Analyzer struct {
	ckt       *netlist.Circuit
	nodeIdx   map[string]int
	nodes     []string
	branches  []*netlist.Element // elements with branch currents: L and V
	branchIdx map[string]int
	couplings []coupling
	n         int // total unknowns = len(nodes) + len(branches)

	srcs   []*netlist.Source // independent sources, in netlist order
	srcIdx map[string]int

	gPlan    []planEntry
	bPlan    []planEntry
	rhsPlan  []srcSlot
	baseBLen int // bPlan length without an appended probe coupling

	// Probe-coupling state (sensitivity analysis): either two overwritten
	// coupling entries (restored on clear) or two appended cells
	// (truncated on clear).
	probeMode  int // 0 = none, 1 = overwrote existing K, 2 = appended
	probeIdx   [2]int
	probeSaved [2]float64

	// Factorization-backend selection (see SetSolver) and the compiled
	// sparse assembly plan: the CSC pattern of the stamp cells plus the
	// value-slot index of every G/B plan entry. Built lazily by
	// prepareSolver and shared read-only by every sweep worker; patGen
	// invalidates worker-local matrices when a probe append changes the
	// pattern.
	mode    linalg.SolverMode
	sparse  bool // prepareSolver's last decision, read by solve
	pat     *linalg.Pattern
	gSlot   []int32
	bSlot   []int32
	patBLen int // len(bPlan) the pattern was built for
	patGen  int

	scr   solveScratch    // serial-API scratch; sweep workers get their own
	spare []*solveScratch // sweep-worker scratch kept for the next sweep
}

// solveScratch is the per-worker reusable state of the solve path: the
// assembly buffer, the factorization scratch, the right-hand side and the
// solution. Everything is lazily sized on first use and then recycled, so
// the steady-state solve performs no allocations.
type solveScratch struct {
	m   *linalg.Complex
	lu  linalg.ComplexLU
	sm  *linalg.SparseComplex
	slu linalg.SparseComplexLU
	gen int // pattern generation sm was built against
	// base, when set, is the sweep's shared factorization whose pivot
	// order every sparse factor replays (see SweepCtx).
	base *linalg.SparseComplexLU
	srcv []complex128 // per-source phasors of the current point
	rhs  []complex128
	sol  Solution
}

// coupling is a resolved mutual inductance between two inductor branches.
type coupling struct {
	bi, bj int
	m      float64
}

// NewAnalyzer validates and indexes the circuit, then compiles the stamp
// plans.
func NewAnalyzer(c *netlist.Circuit) (*Analyzer, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{
		ckt:       c,
		nodeIdx:   map[string]int{},
		branchIdx: map[string]int{},
		srcIdx:    map[string]int{},
	}
	a.nodes = c.Nodes()
	for i, n := range a.nodes {
		a.nodeIdx[n] = i
	}
	for _, e := range c.Elements {
		if e.Kind == netlist.L || e.Kind == netlist.V {
			a.branchIdx[e.Name] = len(a.branches)
			a.branches = append(a.branches, e)
		}
		if e.Kind == netlist.V || e.Kind == netlist.I {
			a.srcIdx[e.Name] = len(a.srcs)
			a.srcs = append(a.srcs, e.Src)
		}
	}
	for _, e := range c.Elements {
		if e.Kind != netlist.K {
			continue
		}
		// Validate guarantees both names are inductors, hence branches.
		bi, bj := a.branchIdx[e.LA], a.branchIdx[e.LB]
		m := e.Coup * math.Sqrt(a.branches[bi].Value*a.branches[bj].Value)
		a.couplings = append(a.couplings, coupling{bi: bi, bj: bj, m: m})
	}
	a.n = len(a.nodes) + len(a.branches)
	a.compile()
	return a, nil
}

// compile walks the netlist once and records every stamp as a plan entry,
// preserving the element-order accumulation of the direct walk.
func (a *Analyzer) compile() {
	nn := len(a.nodes)
	addG := func(i, j int, v float64) {
		a.gPlan = append(a.gPlan, planEntry{idx: i*a.n + j, v: v})
	}
	addB := func(i, j int, v float64) {
		a.bPlan = append(a.bPlan, planEntry{idx: i*a.n + j, v: v})
	}
	stampG := func(n1, n2 int, g float64) {
		if n1 >= 0 {
			addG(n1, n1, g)
		}
		if n2 >= 0 {
			addG(n2, n2, g)
		}
		if n1 >= 0 && n2 >= 0 {
			addG(n1, n2, -g)
			addG(n2, n1, -g)
		}
	}
	stampB := func(n1, n2 int, b float64) {
		if n1 >= 0 {
			addB(n1, n1, b)
		}
		if n2 >= 0 {
			addB(n2, n2, b)
		}
		if n1 >= 0 && n2 >= 0 {
			addB(n1, n2, -b)
			addB(n2, n1, -b)
		}
	}

	// Gmin to ground on every node.
	for i := 0; i < nn; i++ {
		addG(i, i, Gmin)
	}
	for _, e := range a.ckt.Elements {
		n1, n2 := a.node(e.N1), a.node(e.N2)
		switch e.Kind {
		case netlist.R:
			stampG(n1, n2, 1/e.Value)
		case netlist.SW:
			// In AC analysis the switch is its on-resistance; the EMI flow
			// replaces switching devices by equivalent noise sources.
			stampG(n1, n2, 1/e.Value)
		case netlist.D:
			// Diodes are blocking in small-signal EMI analysis.
			stampG(n1, n2, 1/e.Roff)
		case netlist.C:
			stampB(n1, n2, e.Value)
		case netlist.L, netlist.V:
			b := nn + a.branchIdx[e.Name]
			// KCL: branch current leaves N1 and enters N2.
			if n1 >= 0 {
				addG(n1, b, 1)
				addG(b, n1, 1)
			}
			if n2 >= 0 {
				addG(n2, b, -1)
				addG(b, n2, -1)
			}
			if e.Kind == netlist.L {
				addB(b, b, -e.Value)
			} else {
				a.rhsPlan = append(a.rhsPlan, srcSlot{row: b, src: a.srcIdx[e.Name]})
			}
		case netlist.I:
			if n1 >= 0 {
				a.rhsPlan = append(a.rhsPlan, srcSlot{row: n1, negative: true, src: a.srcIdx[e.Name]})
			}
			if n2 >= 0 {
				a.rhsPlan = append(a.rhsPlan, srcSlot{row: n2, src: a.srcIdx[e.Name]})
			}
		case netlist.K:
			// handled below via a.couplings
		}
	}
	for _, cp := range a.couplings {
		bi, bj := nn+cp.bi, nn+cp.bj
		addB(bi, bj, -cp.m)
		addB(bj, bi, -cp.m)
	}
	a.baseBLen = len(a.bPlan)
}

// Solution holds one AC operating point. A Solution returned by Solve
// shares the Analyzer's (or sweep worker's) solve buffer: it is valid
// until the next Solve on the same Analyzer. Extract values before
// solving again.
type Solution struct {
	Freq float64
	a    *Analyzer
	x    []complex128
}

// node returns the index of a node, or -1 for ground.
func (a *Analyzer) node(name string) int {
	if name == "0" {
		return -1
	}
	return a.nodeIdx[name]
}

// SourceIndex returns the index of the named V or I source in a Drive's
// phasor slice.
func (a *Analyzer) SourceIndex(name string) (int, bool) {
	i, ok := a.srcIdx[name]
	return i, ok
}

// SetSolver overrides the factorization backend for this Analyzer.
// The default, ModeAuto, defers to the process-wide selection (the CLIs'
// -solver flag via linalg.SetDefaultSolver) and from there to the
// size/density heuristic. Call before solving; the choice is re-evaluated
// on the next Solve or sweep.
func (a *Analyzer) SetSolver(m linalg.SolverMode) { a.mode = m }

// SolverKind reports which backend the current configuration selects for
// this system: "dense" or "sparse".
func (a *Analyzer) SolverKind() string {
	if a.prepareSolver() {
		return "sparse"
	}
	return "dense"
}

// prepareSolver decides dense vs sparse for the current mode and system
// and, when sparse, makes sure the CSC pattern and assembly slots exist.
// It mutates the Analyzer, so sweeps call it once before fanning out;
// workers then only read the decision and the immutable pattern.
func (a *Analyzer) prepareSolver() bool {
	mode := a.mode
	if mode == linalg.ModeAuto {
		mode = linalg.DefaultSolver()
	}
	// Plan lengths over-count the unique cells (stamps accumulate), so
	// this density estimate is conservative: it only ever biases auto
	// toward the dense path.
	a.sparse = linalg.ChooseSparse(mode, a.n, len(a.gPlan)+len(a.bPlan))
	if a.sparse {
		a.ensureSparsePlan()
		// Fill-aware refinement: auto falls back to dense when the
		// pattern's projected elimination fill makes sparse the slower
		// backend (dense K-coupling meshes); a forced ModeSparse stands.
		if mode == linalg.ModeAuto && !linalg.SparseWorthwhile(a.n, a.pat.EstFactorFlops()) {
			a.sparse = false
		}
	}
	return a.sparse
}

// ensureSparsePlan compiles the stamp plans' cell indices into a shared
// CSC pattern plus per-entry value slots. A probe append (SetProbeCoupling
// mode 2) changes the B plan's cells, so the pattern is keyed on the plan
// length and rebuilt — and patGen bumped — when it no longer matches.
func (a *Analyzer) ensureSparsePlan() {
	if a.pat != nil && a.patBLen == len(a.bPlan) {
		return
	}
	flat := make([]int, 0, len(a.gPlan)+len(a.bPlan))
	for _, e := range a.gPlan {
		flat = append(flat, e.idx)
	}
	for _, e := range a.bPlan {
		flat = append(flat, e.idx)
	}
	pat, slots := linalg.NewPatternFromFlat(a.n, flat)
	a.pat = pat
	a.gSlot = slots[:len(a.gPlan):len(a.gPlan)]
	a.bSlot = slots[len(a.gPlan):]
	a.patBLen = len(a.bPlan)
	a.patGen++
}

// Solve performs one AC analysis at frequency f (Hz). At f = 0 the DC
// values of the sources drive the circuit (inductors short, capacitors
// open); otherwise the AC magnitudes and phases do. The returned Solution
// reuses the Analyzer's buffers and is valid until the next Solve.
func (a *Analyzer) Solve(f float64) (*Solution, error) {
	a.prepareSolver()
	return a.solve(&a.scr, f, 0, nil)
}

// solve runs one assembly/factor/resolve cycle against the given scratch
// for sweep point i (drive, when set, overrides its source phasors). The
// backend decision and (for sparse) the pattern must already be in place
// via prepareSolver.
func (a *Analyzer) solve(s *solveScratch, f float64, i int, drive Drive) (*Solution, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("mna: invalid frequency %g", f)
	}
	engine.CountMNASolve()
	omega := 2 * math.Pi * f
	if s.rhs == nil {
		s.rhs = make([]complex128, a.n)
		s.srcv = make([]complex128, len(a.srcs))
		s.sol = Solution{a: a, x: make([]complex128, a.n)}
	}

	// Fused assembly: M = G + jω·B in one pass over the compiled plans —
	// into the flat dense buffer or the pattern's value slots. Plan order
	// is identical either way, so the per-cell accumulation (and thus the
	// rounding) of both backends matches the historic netlist walk.
	engine.CountAssembly()
	var solver linalg.ComplexFactorizer
	var ferr error
	if a.sparse {
		if s.sm == nil || s.gen != a.patGen {
			s.sm = linalg.NewSparseComplex(a.pat)
			s.gen = a.patGen
		}
		if s.base != nil {
			s.slu.ReplayFrom(s.base)
		}
		v := s.sm.V
		for i := range v {
			v[i] = 0
		}
		for i, e := range a.gPlan {
			v[a.gSlot[i]] += complex(e.v, 0)
		}
		for i, e := range a.bPlan {
			v[a.bSlot[i]] += complex(0, omega*e.v)
		}
		ferr = s.sm.Factor(&s.slu)
		solver = &s.slu
	} else {
		if s.m == nil {
			s.m = linalg.NewComplex(a.n)
		}
		buf := s.m.V
		for i := range buf {
			buf[i] = 0
		}
		for _, e := range a.gPlan {
			buf[e.idx] += complex(e.v, 0)
		}
		for _, e := range a.bPlan {
			buf[e.idx] += complex(0, omega*e.v)
		}
		ferr = s.m.Factor(&s.lu)
		solver = &s.lu
	}
	if ferr != nil {
		return nil, fmt.Errorf("mna: f=%g Hz: %w", f, ferr)
	}
	for j, src := range a.srcs {
		s.srcv[j] = sourceValue(src, f)
	}
	if drive != nil {
		drive(i, s.srcv)
	}
	for j := range s.rhs {
		s.rhs[j] = 0
	}
	for _, sl := range a.rhsPlan {
		v := s.srcv[sl.src]
		if sl.negative {
			s.rhs[sl.row] -= v
		} else {
			s.rhs[sl.row] += v
		}
	}
	if err := solver.SolveFactored(s.rhs, s.sol.x); err != nil {
		return nil, fmt.Errorf("mna: f=%g Hz: %w", f, err)
	}
	s.sol.Freq = f
	return &s.sol, nil
}

// SetProbeCoupling temporarily sets the mutual coupling between two
// inductors to factor k, applied as a two-entry delta on the compiled B
// plan — no circuit clone, no recompilation. An existing K coupling
// between the pair is overridden for the duration; ClearProbeCoupling
// undoes the probe. Any previous probe is cleared first.
func (a *Analyzer) SetProbeCoupling(la, lb string, k float64) error {
	a.ClearProbeCoupling()
	ia, oka := a.branchIdx[la]
	ib, okb := a.branchIdx[lb]
	if !oka || !okb || a.branches[ia].Kind != netlist.L || a.branches[ib].Kind != netlist.L {
		return fmt.Errorf("mna: probe coupling %s/%s: both must be inductors", la, lb)
	}
	m := k * math.Sqrt(a.branches[ia].Value*a.branches[ib].Value)
	// The coupling stamps live at the tail of the base B plan, two entries
	// per coupling in coupling order.
	couplingStart := a.baseBLen - 2*len(a.couplings)
	for ci, cp := range a.couplings {
		if (cp.bi == ia && cp.bj == ib) || (cp.bi == ib && cp.bj == ia) {
			a.probeMode = 1
			a.probeIdx = [2]int{couplingStart + 2*ci, couplingStart + 2*ci + 1}
			for pi, ei := range a.probeIdx {
				a.probeSaved[pi] = a.bPlan[ei].v
				a.bPlan[ei].v = -m
			}
			return nil
		}
	}
	nn := len(a.nodes)
	bi, bj := nn+ia, nn+ib
	a.probeMode = 2
	a.bPlan = append(a.bPlan,
		planEntry{idx: bi*a.n + bj, v: -m},
		planEntry{idx: bj*a.n + bi, v: -m},
	)
	return nil
}

// ClearProbeCoupling removes the probe set by SetProbeCoupling, restoring
// the compiled plans. It is a no-op when no probe is active.
func (a *Analyzer) ClearProbeCoupling() {
	switch a.probeMode {
	case 1:
		for pi, ei := range a.probeIdx {
			a.bPlan[ei].v = a.probeSaved[pi]
		}
	case 2:
		a.bPlan = a.bPlan[:a.baseBLen]
	}
	a.probeMode = 0
}

// sourceValue returns the complex excitation of a source at frequency f.
func sourceValue(s *netlist.Source, f float64) complex128 {
	if f == 0 {
		return complex(s.DC, 0)
	}
	return cmplx.Rect(s.ACMag, s.ACPhase)
}

// NodeVoltage returns the complex voltage of the named node (ground is 0).
func (s *Solution) NodeVoltage(name string) complex128 {
	if name == "0" {
		return 0
	}
	i, ok := s.a.nodeIdx[name]
	if !ok {
		return cmplx.NaN()
	}
	return s.x[i]
}

// BranchCurrent returns the complex current through the named inductor or
// voltage source (flowing N1 → N2), or NaN for other elements.
func (s *Solution) BranchCurrent(name string) complex128 {
	b, ok := s.a.branchIdx[name]
	if !ok {
		return cmplx.NaN()
	}
	return s.x[len(s.a.nodes)+b]
}

// SweepNode solves the circuit at each frequency and returns the complex
// voltage at the named node.
func (a *Analyzer) SweepNode(freqs []float64, node string) ([]complex128, error) {
	return a.SweepNodeCtx(context.Background(), freqs, node)
}

// SweepNodeCtx is the batched sweep: frequencies fan out over the shared
// engine pool (see SweepCtx) and the complex voltage of the named node is
// read at each.
func (a *Analyzer) SweepNodeCtx(ctx context.Context, freqs []float64, node string) ([]complex128, error) {
	ctx, sp := obs.Start(ctx, "mna.sweep")
	sp.Int("freqs", int64(len(freqs)))
	var f0, r0 uint64
	if sp != nil {
		_, f0, r0 = engine.LUCounts()
	}
	defer func() {
		if sp != nil {
			_, f1, r1 := engine.LUCounts()
			sp.Int("lu_factorizations", int64(f1-f0))
			sp.Int("lu_resolves", int64(r1-r0))
		}
		sp.End()
	}()
	out := make([]complex128, len(freqs))
	err := a.SweepCtx(ctx, freqs, nil, func(i int, sol *Solution) error {
		out[i] = sol.NodeVoltage(node)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepCtx solves point i at frequency freqs[i] for every i, fanned out
// over the shared engine pool: each worker solves with its own scratch
// against the one compiled plan set, drive (optional) sets each point's
// source phasors, and read receives the point's solution, valid only
// during the call. A point's bits depend only on its own values, so the
// results are identical under any parallelism: dense factorizations keep
// no state between points, and sparse ones all replay the pivot order of
// point 0's full factorization, solved before the fan-out (a point whose
// retained pivot decays re-pivots for itself only). The compiled plans,
// including any active probe coupling, must not change during the sweep.
func (a *Analyzer) SweepCtx(ctx context.Context, freqs []float64, drive Drive, read func(i int, sol *Solution) error) error {
	sparse := a.prepareSolver() // backend decision + shared pattern, before the fan-out
	point := func(s *solveScratch, i int) error {
		sol, err := a.solve(s, freqs[i], i, drive)
		if err != nil {
			return err
		}
		return read(i, sol)
	}
	// base is always a fresh LU, so a spare scratch that still replays
	// an earlier sweep's base (and keeps it alive) cannot mistake it for
	// this one.
	var base *linalg.SparseComplexLU
	first := 0
	if sparse && len(freqs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s := &solveScratch{}
		if err := point(s, 0); err != nil {
			return err
		}
		base, first = &s.slu, 1
	}
	// Worker scratch is recycled across sweeps, so repeated sweeps (the
	// sensitivity ranking's probes) allocate no new solve buffers.
	var mu sync.Mutex
	var used []*solveScratch
	err := engine.ForEachStateCtx(ctx, len(freqs)-first,
		func() (*solveScratch, error) {
			mu.Lock()
			defer mu.Unlock()
			var s *solveScratch
			if n := len(a.spare); n > 0 {
				s, a.spare = a.spare[n-1], a.spare[:n-1]
			} else {
				s = &solveScratch{}
			}
			s.base = base
			used = append(used, s)
			return s, nil
		},
		func(s *solveScratch, i int) error { return point(s, first+i) })
	a.spare = append(a.spare, used...)
	return err
}

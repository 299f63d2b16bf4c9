package mna

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/netlist"
)

// ladderCircuit builds an RLC ladder with stages series-L/R sections and
// shunt C at every intermediate node — the canonical sparse MNA shape
// (tridiagonal-ish plus branch rows).
func ladderCircuit(stages int) *netlist.Circuit {
	c := &netlist.Circuit{}
	c.AddV("Vin", "n0", "0", netlist.Source{ACMag: 1})
	for s := 0; s < stages; s++ {
		a, b := fmt.Sprintf("n%d", s), fmt.Sprintf("n%d", s+1)
		mid := fmt.Sprintf("m%d", s)
		c.AddL(fmt.Sprintf("L%d", s), a, mid, 1e-6*(1+0.01*float64(s)))
		c.AddR(fmt.Sprintf("R%d", s), mid, b, 0.1+0.001*float64(s))
		c.AddC(fmt.Sprintf("C%d", s), b, "0", 1e-9*(1+0.02*float64(s)))
	}
	c.AddR("Rload", fmt.Sprintf("n%d", stages), "0", 50)
	// A few couplings between neighbouring inductors so group-2 mutual
	// stamps are exercised on the sparse path too.
	for s := 0; s+1 < stages && s < 6; s += 2 {
		c.AddK(fmt.Sprintf("K%d", s), fmt.Sprintf("L%d", s), fmt.Sprintf("L%d", s+1), 0.15)
	}
	return c
}

func TestSolverSelection(t *testing.T) {
	small, err := NewAnalyzer(ladderCircuit(4))
	if err != nil {
		t.Fatal(err)
	}
	// 4 stages → ~13 unknowns: far below the auto crossover.
	if got := small.SolverKind(); got != "dense" {
		t.Errorf("small system auto-selected %q, want dense", got)
	}
	small.SetSolver(linalg.ModeSparse)
	if got := small.SolverKind(); got != "sparse" {
		t.Errorf("forced sparse reported %q", got)
	}
	small.SetSolver(linalg.ModeDense)
	if got := small.SolverKind(); got != "dense" {
		t.Errorf("forced dense reported %q", got)
	}

	big, err := NewAnalyzer(ladderCircuit(80)) // ~240 unknowns, very sparse
	if err != nil {
		t.Fatal(err)
	}
	if big.n < linalg.SparseAutoMinN {
		t.Fatalf("fixture too small for the auto crossover: n=%d", big.n)
	}
	if got := big.SolverKind(); got != "sparse" {
		t.Errorf("large sparse system auto-selected %q, want sparse", got)
	}
	big.SetSolver(linalg.ModeDense)
	if got := big.SolverKind(); got != "dense" {
		t.Errorf("forced dense on large system reported %q", got)
	}
}

func TestProcessDefaultSolverHonored(t *testing.T) {
	prev := linalg.SetDefaultSolver(linalg.ModeSparse)
	defer linalg.SetDefaultSolver(prev)
	a, err := NewAnalyzer(ladderCircuit(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.SolverKind(); got != "sparse" {
		t.Errorf("process-wide sparse default ignored: got %q", got)
	}
	a.SetSolver(linalg.ModeDense) // per-analyzer override beats the global
	if got := a.SolverKind(); got != "dense" {
		t.Errorf("per-analyzer dense override ignored: got %q", got)
	}
}

// sweepBoth runs the same sweep through forced-dense and forced-sparse
// analyzers of the same circuit and returns both results.
func sweepBoth(t *testing.T, c *netlist.Circuit, freqs []float64, node string) (xd, xs []complex128) {
	t.Helper()
	ad, err := NewAnalyzer(c)
	if err != nil {
		t.Fatal(err)
	}
	ad.SetSolver(linalg.ModeDense)
	as, err := NewAnalyzer(c)
	if err != nil {
		t.Fatal(err)
	}
	as.SetSolver(linalg.ModeSparse)
	xd, err = ad.SweepNode(freqs, node)
	if err != nil {
		t.Fatalf("dense sweep: %v", err)
	}
	xs, err = as.SweepNode(freqs, node)
	if err != nil {
		t.Fatalf("sparse sweep: %v", err)
	}
	return xd, xs
}

func TestSparseSweepMatchesDense(t *testing.T) {
	c := ladderCircuit(50)
	freqs := make([]float64, 40)
	for i := range freqs {
		freqs[i] = 1e3 * float64(1+i*i)
	}
	freqs[0] = 0 // DC point included
	xd, xs := sweepBoth(t, c, freqs, "n25")
	for i := range xd {
		scale := cmplx.Abs(xd[i])
		if scale < 1e-30 {
			scale = 1e-30
		}
		if d := cmplx.Abs(xd[i]-xs[i]) / scale; d > 1e-8 {
			t.Fatalf("f=%g: dense %v sparse %v (rel %g)", freqs[i], xd[i], xs[i], d)
		}
	}
}

func TestSparseProbeCouplingMatchesDense(t *testing.T) {
	c := ladderCircuit(30)
	ad, _ := NewAnalyzer(c)
	ad.SetSolver(linalg.ModeDense)
	as, _ := NewAnalyzer(c)
	as.SetSolver(linalg.ModeSparse)

	check := func(stage string) {
		t.Helper()
		const f = 5e5
		sd, err := ad.Solve(f)
		if err != nil {
			t.Fatalf("%s dense: %v", stage, err)
		}
		vd := sd.NodeVoltage("n15")
		ss, err := as.Solve(f)
		if err != nil {
			t.Fatalf("%s sparse: %v", stage, err)
		}
		vs := ss.NodeVoltage("n15")
		if d := cmplx.Abs(vd - vs); d > 1e-8*cmplx.Abs(vd) {
			t.Fatalf("%s: dense %v sparse %v", stage, vd, vs)
		}
	}

	check("baseline")
	// L10/L20 are uncoupled: the probe appends new stamp cells, which on
	// the sparse side forces a pattern rebuild.
	for _, a := range []*Analyzer{ad, as} {
		if err := a.SetProbeCoupling("L10", "L20", 0.3); err != nil {
			t.Fatal(err)
		}
	}
	check("probe-appended")
	for _, a := range []*Analyzer{ad, as} {
		a.ClearProbeCoupling()
	}
	check("probe-cleared")
	// L0/L1 already carry a K: the probe overwrites in place (no rebuild).
	for _, a := range []*Analyzer{ad, as} {
		if err := a.SetProbeCoupling("L0", "L1", 0.9); err != nil {
			t.Fatal(err)
		}
	}
	check("probe-overwritten")
	for _, a := range []*Analyzer{ad, as} {
		a.ClearProbeCoupling()
	}
	check("restored")
}

// TestSparseSingularParityWithContext builds a singular system (two
// ideal voltage sources in parallel between the same nodes) and checks
// that both backends surface the typed linalg.ErrSingular wrapped with
// the f= frequency context.
func TestSparseSingularParityWithContext(t *testing.T) {
	c := &netlist.Circuit{}
	c.AddV("V1", "a", "0", netlist.Source{ACMag: 1})
	c.AddV("V2", "a", "0", netlist.Source{ACMag: 2})
	c.AddR("R1", "a", "0", 10)
	for _, mode := range []linalg.SolverMode{linalg.ModeDense, linalg.ModeSparse} {
		a, err := NewAnalyzer(c)
		if err != nil {
			t.Fatal(err)
		}
		a.SetSolver(mode)
		_, err = a.Solve(1e6)
		if !errors.Is(err, linalg.ErrSingular) {
			t.Fatalf("%v: want ErrSingular, got %v", mode, err)
		}
		if !strings.Contains(err.Error(), "f=1e+06") {
			t.Fatalf("%v: error lacks frequency context: %v", mode, err)
		}
	}
}

// kMeshCircuit builds a 2-D grid of filter stages with K coupling
// between every pair of inductors within a neighbour radius — the MNA
// shape a densely-coupled board produces. Its stamp pattern passes the
// nnz density gate, but mutual-inductance cliques fill in heavily under
// elimination, so the fill-aware half of the auto heuristic must send
// it back to the dense backend (measured: sparse is ~2× slower than
// dense on this system, see linalg.sparseFlopPenalty).
func kMeshCircuit(stages, cols int) *netlist.Circuit {
	c := &netlist.Circuit{}
	c.AddV("Vin", "n0", "0", netlist.Source{ACMag: 1})
	prev := "n0"
	for s := 0; s < stages; s++ {
		node := fmt.Sprintf("n%d", s+1)
		c.AddL(fmt.Sprintf("L%d", s), prev, node, 1e-6)
		mid1, mid2 := node+"_a", node+"_b"
		c.AddC(fmt.Sprintf("Cc%d", s), node, mid1, 1e-6)
		c.AddR(fmt.Sprintf("Rc%d", s), mid1, mid2, 0.05)
		c.AddL(fmt.Sprintf("Lc%d", s), mid2, "0", 5e-9)
		prev = node
	}
	c.AddR("RL", prev, "0", 4)
	for s := 0; s < stages; s++ {
		rs, cs := s/cols, s%cols
		for u := s + 1; u < stages; u++ {
			ru, cu := u/cols, u%cols
			dx, dy := float64(cs-cu)*0.02, float64(rs-ru)*0.032
			if dx*dx+dy*dy <= 0.05*0.05 {
				c.AddK(fmt.Sprintf("Ka%d_%d", s, u), fmt.Sprintf("L%d", s), fmt.Sprintf("L%d", u), 1e-3)
				c.AddK(fmt.Sprintf("Kb%d_%d", s, u), fmt.Sprintf("L%d", s), fmt.Sprintf("Lc%d", u), 1e-3)
				c.AddK(fmt.Sprintf("Kc%d_%d", s, u), fmt.Sprintf("Lc%d", s), fmt.Sprintf("Lc%d", u), 1e-3)
			}
		}
	}
	return c
}

func TestSolverFillFallback(t *testing.T) {
	a, err := NewAnalyzer(kMeshCircuit(357, 19))
	if err != nil {
		t.Fatal(err)
	}
	// The density gate alone would pick sparse for this system…
	nnz := len(a.gPlan) + len(a.bPlan)
	if !linalg.ChooseSparse(linalg.ModeAuto, a.n, nnz) {
		t.Fatalf("fixture no longer passes the density gate: n=%d nnz=%d", a.n, nnz)
	}
	// …but the fill-aware refinement must veto it.
	if got := a.SolverKind(); got != "dense" {
		t.Errorf("fill-heavy K-mesh auto-selected %q, want dense", got)
	}
	a.SetSolver(linalg.ModeSparse)
	if got := a.SolverKind(); got != "sparse" {
		t.Errorf("forced sparse reported %q", got)
	}
	// The forced-sparse path must still produce the dense answer.
	a.SetSolver(linalg.ModeDense)
	vd, err := a.Solve(1e6)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSolver(linalg.ModeSparse)
	vs, err := a.Solve(1e6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vd.x {
		if d := cmplx.Abs(vd.x[i] - vs.x[i]); d > 1e-9*(1+cmplx.Abs(vd.x[i])) {
			t.Fatalf("unknown %d: dense %v vs sparse %v", i, vd.x[i], vs.x[i])
		}
	}
}

// TestParallelSparseSweepReproducible: a pooled sparse sweep must give
// the serial sweep's bits on every run. Each point replays the base pivot
// order of the sweep's first point, so which worker solved which points
// before cannot leak into a point's rounding.
func TestParallelSparseSweepReproducible(t *testing.T) {
	a, err := NewAnalyzer(ladderCircuit(50))
	if err != nil {
		t.Fatal(err)
	}
	a.SetSolver(linalg.ModeSparse)
	freqs := make([]float64, 200)
	for i := range freqs {
		freqs[i] = 1e3 * math.Pow(1.08, float64(i))
	}
	prev := engine.SetMaxParallelism(1)
	defer engine.SetMaxParallelism(prev)
	want, err := a.SweepNode(freqs, "n25")
	if err != nil {
		t.Fatal(err)
	}
	engine.SetMaxParallelism(4)
	for run := 0; run < 20; run++ {
		got, err := a.SweepNode(freqs, "n25")
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d, f=%g: parallel %v, serial %v", run, freqs[i], got[i], want[i])
			}
		}
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/buck"
	"repro/internal/drc"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/place"
)

const (
	// Each NSGA-II run is short (two evaluation waves of 8) so that a
	// measured pass averages over many independent search trajectories:
	// a candidate's cost depends on where the search wanders.
	explorePop  = 8 // NSGA-II population per run
	exploreGens = 1 // offspring generations per run
	// exploreMinEvals keeps at least tailMin evaluations beyond the p90.
	exploreMinEvals = 100
	// marginTolDB bounds the disagreement between a front member's margin
	// objective and its dense-backend recomputation.
	marginTolDB = 1e-6
	// setupRepeats is how many times a run builds its set-up; setup_s is
	// the median.
	setupRepeats = 5
	// penalty is explore's objective value for an unplaceable candidate.
	penalty = 1e9
)

// timedEval wraps the design problem as an explore.Evaluator and times
// every Evaluate call — one op of the explore-buck workload.
type timedEval struct {
	prob *explore.DesignProblem

	mu       sync.Mutex
	lat      []float64 // ms per call
	busy     time.Duration
	feasible int
}

func (t *timedEval) Bounds() []explore.Bound  { return t.prob.Bounds() }
func (t *timedEval) ObjectiveNames() []string { return t.prob.ObjectiveNames() }

func (t *timedEval) Evaluate(ctx context.Context, genes []float64) ([]float64, error) {
	ctx, sp := obs.Start(ctx, "explore.evaluate")
	t0 := time.Now()
	out, err := t.prob.Evaluate(ctx, genes)
	d := time.Since(t0)
	sp.End()
	t.mu.Lock()
	t.lat = append(t.lat, float64(d)/1e6)
	t.busy += d
	if err == nil && out[0] < penalty {
		t.feasible++
	}
	t.mu.Unlock()
	return out, err
}

// exploreProblem builds the workload's problem: the paper's buck
// converter scored on all four objectives over the full CISPR band.
func exploreProblem() (*explore.DesignProblem, error) {
	prob := &explore.DesignProblem{Project: buck.Project(), Objectives: explore.AllObjectives}
	return prob, prob.Validate()
}

// explorePass is one measured pass: every evaluation's latency, the
// pass's wall time, each NSGA-II run's evaluation rate, and the fronts
// to check.
type explorePass struct {
	ev     *timedEval
	wall   time.Duration
	rates  []float64 // evaluations/s of each run
	fronts [][]explore.Individual
}

// rate is the median of the runs' evaluation rates: one run slowed by a
// burst of machine noise moves one sample, not the figure.
func (p *explorePass) rate() float64 { return median(p.rates) }

// runExplorePass runs seeded NSGA-II runs back to back until the time is
// up and enough evaluations were timed.
func runExplorePass(ctx context.Context, prob *explore.DesignProblem, opt options) (*explorePass, error) {
	p := &explorePass{ev: &timedEval{prob: prob}}
	budget := time.Duration(opt.seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; ; i++ {
		el := time.Since(t0)
		if el >= 3*budget || el >= budget && len(p.ev.lat) >= exploreMinEvals {
			break
		}
		rctx, sp := obs.Start(ctx, "explore.run")
		res, err := explore.Run(rctx, p.ev, explore.Config{
			Pop: explorePop, Generations: exploreGens, Seed: opt.seed*1000 + int64(i),
		}, nil)
		sp.End()
		if err != nil {
			return nil, err
		}
		p.rates = append(p.rates, float64(res.Evaluations)/(time.Since(t0)-el).Seconds())
		p.fronts = append(p.fronts, res.Front)
	}
	p.wall = time.Since(t0)
	return p, nil
}

func runExplore(opt options) (*result, error) {
	res := &result{}
	ctx := context.Background()
	var prob *explore.DesignProblem
	setups := make([]float64, setupRepeats)
	for i := range setups {
		freshEngine()
		t0 := time.Now()
		p, err := exploreProblem()
		if err != nil {
			return nil, err
		}
		// One evaluation builds whatever the program constructs lazily.
		mid := make([]float64, len(p.Bounds()))
		for g, b := range p.Bounds() {
			mid[g] = (b.Lo + b.Hi) / 2
		}
		if _, err := p.Evaluate(ctx, mid); err != nil {
			return nil, fmt.Errorf("explore set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
		prob = p
	}
	res.add("setup_s", "s", median(setups), len(setups))

	freshEngine()
	runtime.GC()
	pass, err := runExplorePass(ctx, prob, opt)
	if err != nil {
		return nil, err
	}
	lat := pass.ev.lat
	res.add("ops_per_s", "1/s", pass.rate(), len(lat))
	res.addPct("op_p50_ms", "ms", lat, 0.5)
	res.addPct("op_tail_ms", "ms", lat, tailQ[opt.workload])
	res.attempted += len(lat)
	fronts := pass.fronts

	if opt.trace {
		freshEngine()
		runtime.GC()
		tr := obs.NewTrace("perfbench")
		tr.SetCap(spanCap)
		tpass, err := runExplorePass(obs.WithTrace(ctx, tr), prob, opt)
		if err != nil {
			return nil, err
		}
		tr.Finish()
		addEngineRecords(res, engine.Snapshot())
		spans, _ := fromObs(tr)
		addLayerRecords(res, spans, tpass.wall)
		var waves time.Duration
		for _, s := range spans {
			if s.Name == "explore.generation" {
				waves += s.dur()
			}
		}
		tev := tpass.ev
		res.add("explore.eval_busy_s", "s", tev.busy.Seconds(), len(tev.lat))
		if waves > 0 {
			res.add("explore.wave_efficiency", "frac",
				float64(tev.busy)/(float64(waves)*float64(runtime.GOMAXPROCS(0))), len(tev.lat))
		}
		res.add("place.feasible_frac", "frac", float64(tev.feasible)/float64(len(tev.lat)), len(tev.lat))
		res.add("trace.dropped_spans", "count", float64(tr.Dropped()), tr.Len())
		res.add("trace.overhead_frac", "frac", 1-tpass.rate()/pass.rate(), len(tev.lat))
		res.attempted += len(tev.lat)
		fronts = append(fronts, tpass.fronts...)
	}

	// Each run's front is checked at its two ends (a front is sorted by
	// the first objective); re-solving every member would cost as much as
	// the measured pass.
	checked := 0
	for _, front := range fronts {
		ends := []explore.Individual{front[0]}
		if last := front[len(front)-1]; fmt.Sprint(last.Genes) != fmt.Sprint(front[0].Genes) {
			ends = append(ends, last)
		}
		for _, ind := range ends {
			checked++
			if err := checkFrontMember(ctx, prob, ind); err != nil {
				res.fail("explore front member %v: %v", ind.Genes, err)
			}
		}
	}
	res.add("explore.checked_members", "count", float64(checked), checked)
	return res, nil
}

// checkFrontMember rebuilds one front member with Realize and checks
// that its geometric objectives reproduce exactly and its margin agrees
// with a dense-backend solve within marginTolDB.
func checkFrontMember(ctx context.Context, prob *explore.DesignProblem, ind explore.Individual) error {
	obj := ind.Objectives
	d, err := prob.Realize(ctx, ind.Genes)
	if obj[0] >= penalty {
		var perr *place.PlaceError
		if !errors.As(err, &perr) {
			return fmt.Errorf("penalty member realizes without a placement error (err %v)", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("realize: %w", err)
	}
	if a := placedArea(d); a != obj[1] {
		return fmt.Errorf("area %v, objective %v", a, obj[1])
	}
	if n := netLength(d); n != obj[2] {
		return fmt.Errorf("net length %v, objective %v", n, obj[2])
	}
	if v := float64(len(drc.Check(d).Violations)); v != obj[3] {
		return fmt.Errorf("violations %v, objective %v", v, obj[3])
	}
	proj := *prob.Project
	proj.Design = d
	proj.Solver = linalg.ModeDense
	ks, err := proj.ExtractCouplingsCtx(ctx, proj.AllPairs())
	if err != nil {
		return err
	}
	bs, err := emi.NewBandSolver(proj.CircuitWithCouplings(ks), proj.Sources, proj.MeasureNode, 0, prob.MaxFreq)
	if err != nil {
		return err
	}
	bs.SetSolver(linalg.ModeDense)
	spec, err := bs.SpectrumCtx(ctx)
	if err != nil {
		return err
	}
	m := math.Max(-1000, math.Min(1000, spec.WorstMargin()))
	if diff := math.Abs(-m - obj[0]); !(diff <= marginTolDB) {
		return fmt.Errorf("margin %v dB, dense %v dB", -obj[0], m)
	}
	return nil
}

// placedArea is Σ over boards of the placed parts' bounding-box area —
// explore's area objective, recomputed from the public layout model.
func placedArea(d *layout.Design) float64 {
	total := 0.0
	for b := 0; b < d.Boards; b++ {
		var bbox geom.Rect
		found := false
		for _, c := range d.Comps {
			if !c.Placed || c.Board != b {
				continue
			}
			if !found {
				bbox, found = c.Footprint(), true
			} else {
				bbox = bbox.Union(c.Footprint())
			}
		}
		if found {
			total += bbox.W() * bbox.H()
		}
	}
	return total
}

// netLength is Σ star length over the design's nets — explore's net
// objective.
func netLength(d *layout.Design) float64 {
	sum := 0.0
	for _, n := range d.Nets {
		sum += d.NetLength(n)
	}
	return sum
}

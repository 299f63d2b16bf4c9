package explore

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/emi"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/place"
)

// Objective names a DesignProblem can score. All are minimized; the margin
// objective is the negated worst-case margin against the CISPR limit mask,
// so minimizing it maximizes headroom.
const (
	ObjMargin     = "margin"     // −(worst-case limit − level) in dB
	ObjArea       = "area"       // bounding-box area of the placed parts, m²
	ObjNet        = "net"        // Σ star net length, m
	ObjViolations = "violations" // DRC violation count
)

// AllObjectives is the full objective vocabulary in canonical order.
var AllObjectives = []string{ObjMargin, ObjArea, ObjNet, ObjViolations}

// penaltyObjective marks an unplaceable candidate: worse than any feasible
// point in every objective, but finite so crowding distances stay usable.
const penaltyObjective = 1e9

// marginCap bounds the margin objective: beyond ±1000 dB the spectrum is
// numerically meaningless and unbounded values would wreck crowding
// normalization.
const marginCap = 1000.0

// SweepParam is one component-parameter axis of the search: the named
// circuit element's value is scaled by a genome-controlled multiplier in
// [Lo, Hi] (e.g. an X-cap swept over 0.5×..2× its nominal capacitance).
type SweepParam struct {
	Element string  `json:"element"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}

// DesignProblem adapts a core.Project to the Evaluator interface: each
// genome encodes a placement tournament entry (placement seed, priority
// jitter, scoring weights) plus one value multiplier per SweepParam, and
// evaluates to the configured objective vector. Evaluate never mutates
// the project — every candidate works on its own design clone and circuit
// clone, so candidates are safe to fan out.
type DesignProblem struct {
	Project    *core.Project
	Objectives []string // nil = AllObjectives
	Sweep      []SweepParam
	MaxFreq    float64 // EMI band limit; 0 = CISPR band stop

	// Placement knobs shared by all candidates.
	GridStep    float64
	AnnealIters int     // per-candidate refinement budget; 0 = none
	JitterMax   float64 // upper bound of the order-jitter gene; 0 = 0.3
}

// Validate checks the problem is well-formed before a run.
func (p *DesignProblem) Validate() error {
	if p.Project == nil {
		return fmt.Errorf("explore: problem needs a project")
	}
	if err := p.Project.Validate(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, o := range p.objectives() {
		switch o {
		case ObjMargin, ObjArea, ObjNet, ObjViolations:
		default:
			return fmt.Errorf("explore: unknown objective %q", o)
		}
		if seen[o] {
			return fmt.Errorf("explore: duplicate objective %q", o)
		}
		seen[o] = true
	}
	for _, sw := range p.Sweep {
		e := p.Project.Circuit.Find(sw.Element)
		if e == nil {
			return fmt.Errorf("explore: sweep element %q not in circuit", sw.Element)
		}
		switch e.Kind {
		case netlist.R, netlist.L, netlist.C:
		default:
			return fmt.Errorf("explore: sweep element %q is not an R/L/C", sw.Element)
		}
		if !(sw.Lo > 0) || !(sw.Hi >= sw.Lo) {
			return fmt.Errorf("explore: sweep %q needs 0 < lo <= hi, got [%g, %g]",
				sw.Element, sw.Lo, sw.Hi)
		}
	}
	return nil
}

func (p *DesignProblem) objectives() []string {
	if len(p.Objectives) == 0 {
		return AllObjectives
	}
	return p.Objectives
}

func (p *DesignProblem) jitterMax() float64 {
	if p.JitterMax == 0 {
		return 0.3
	}
	return p.JitterMax
}

// ObjectiveNames implements Evaluator.
func (p *DesignProblem) ObjectiveNames() []string { return p.objectives() }

// The genome layout: placement seed, priority jitter, the three scoring
// weights, then one multiplier per sweep parameter.
const fixedGenes = 5

// Bounds implements Evaluator.
func (p *DesignProblem) Bounds() []Bound {
	out := []Bound{
		{0, 1},             // placement seed, quantized by decode
		{0, p.jitterMax()}, // priority order jitter
		{0.25, 2},          // wirelength weight
		{0.05, 1.5},        // group weight
		{0.05, 1},          // compactness weight
	}
	for _, sw := range p.Sweep {
		out = append(out, Bound{sw.Lo, sw.Hi})
	}
	return out
}

// decode splits a genome into the placement options and sweep multipliers.
func (p *DesignProblem) decode(genes []float64) (place.Options, []float64, error) {
	if len(genes) != fixedGenes+len(p.Sweep) {
		return place.Options{}, nil, fmt.Errorf("explore: genome has %d genes, want %d",
			len(genes), fixedGenes+len(p.Sweep))
	}
	opt := place.Options{
		GridStep:         p.GridStep,
		Seed:             int64(genes[0] * float64(1<<31)),
		OrderJitter:      genes[1],
		WirelengthWeight: genes[2],
		GroupWeight:      genes[3],
		CompactWeight:    genes[4],
		AnnealIters:      p.AnnealIters,
	}
	return opt, genes[fixedGenes:], nil
}

// Realize re-runs the winning candidate's placement on a fresh clone and
// returns the placed design — used to turn front members back into
// shippable layouts after a run.
func (p *DesignProblem) Realize(ctx context.Context, genes []float64) (*layout.Design, error) {
	opt, _, err := p.decode(genes)
	if err != nil {
		return nil, err
	}
	d := p.cloneUnplaced()
	if _, err := place.AutoPlaceCtx(ctx, d, opt); err != nil {
		return nil, err
	}
	return d, nil
}

// cloneUnplaced clones the project design with every movable component
// ripped up, so each candidate places from the same blank slate.
func (p *DesignProblem) cloneUnplaced() *layout.Design {
	d := p.Project.Design.Clone()
	for _, c := range d.Comps {
		if !c.Preplaced {
			c.Placed = false
		}
	}
	return d
}

// Evaluate implements Evaluator: place the candidate, then score the
// requested objectives. Candidates whose placement fails return the
// penalty vector (they stay comparable instead of aborting the run);
// context cancellation and solver failures abort.
func (p *DesignProblem) Evaluate(ctx context.Context, genes []float64) ([]float64, error) {
	opt, mults, err := p.decode(genes)
	if err != nil {
		return nil, err
	}
	objectives := p.objectives()
	d := p.cloneUnplaced()
	if _, err := place.AutoPlaceCtx(ctx, d, opt); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var perr *place.PlaceError
		if errors.As(err, &perr) {
			out := make([]float64, len(objectives))
			for i := range out {
				out[i] = penaltyObjective
			}
			return out, nil
		}
		return nil, err
	}

	var margin float64
	var haveMargin bool
	var rep *drc.Report
	for _, o := range objectives {
		switch o {
		case ObjMargin:
			haveMargin = true
		case ObjViolations:
			rep = drc.CheckCtx(ctx, d)
		}
	}
	if haveMargin {
		margin, err = p.worstMargin(ctx, d, mults)
		if err != nil {
			return nil, err
		}
	}

	out := make([]float64, len(objectives))
	for i, o := range objectives {
		switch o {
		case ObjMargin:
			out[i] = -margin
		case ObjArea:
			out[i] = placedArea(d)
		case ObjNet:
			out[i] = totalNetLength(d)
		case ObjViolations:
			out[i] = float64(len(rep.Violations))
		}
	}
	return out, nil
}

// worstMargin runs the coupled EMI prediction of the candidate: couplings
// extracted from its placement, sweep multipliers applied to the circuit,
// one BandSolver compiled and swept over the harmonics. The sweep shares
// the engine pool with the candidates' fan-out, so it runs inline while
// every worker is busy with a candidate.
func (p *DesignProblem) worstMargin(ctx context.Context, d *layout.Design, mults []float64) (float64, error) {
	proj := *p.Project
	proj.Design = d
	if len(mults) > 0 {
		ckt := proj.Circuit.Clone()
		for i, sw := range p.Sweep {
			ckt.Find(sw.Element).Value *= mults[i]
		}
		proj.Circuit = ckt
	}
	ks, err := proj.ExtractCouplingsCtx(ctx, proj.AllPairs())
	if err != nil {
		return 0, err
	}
	ckt := proj.CircuitWithCouplings(ks)
	bs, err := emi.NewBandSolver(ckt, proj.Sources, proj.MeasureNode, 0, p.MaxFreq)
	if err != nil {
		return 0, err
	}
	bs.SetSolver(proj.Solver)
	spec, err := bs.SpectrumCtx(ctx)
	if err != nil {
		return 0, err
	}
	m := spec.WorstMargin()
	if math.IsNaN(m) {
		return 0, fmt.Errorf("explore: margin is NaN")
	}
	if m > marginCap {
		m = marginCap
	} else if m < -marginCap {
		m = -marginCap
	}
	return m, nil
}

// placedArea sums the bounding-box area of the placed components per board.
func placedArea(d *layout.Design) float64 {
	total := 0.0
	for b := 0; b < d.Boards; b++ {
		var bbox geom.Rect
		any := false
		for _, c := range d.Comps {
			if !c.Placed || c.Board != b {
				continue
			}
			if !any {
				bbox = c.Footprint()
				any = true
			} else {
				bbox = bbox.Union(c.Footprint())
			}
		}
		if any {
			total += bbox.W() * bbox.H()
		}
	}
	return total
}

// totalNetLength sums the star length of every net.
func totalNetLength(d *layout.Design) float64 {
	sum := 0.0
	for _, n := range d.Nets {
		sum += d.NetLength(n)
	}
	return sum
}

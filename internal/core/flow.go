// Package core ties the substrates together into the paper's methodical
// EMI design flow:
//
//  1. circuit simulation of the converter including component parasitics,
//  2. sensitivity analysis ranking the pairwise magnetic couplings,
//  3. PEEC field extraction of the relevant coupling factors from the 3D
//     component placement,
//  4. interference prediction with the couplings inserted,
//  5. derivation of minimum-distance placement rules (PEMD), and
//  6. automatic, rule-honouring placement with final verification.
//
// A Project bundles the three synchronized views of one design: the
// electrical netlist, the geometric placement problem, and the PEEC
// component models, linked by reference designators.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/components"
	"repro/internal/drc"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/peec"
	"repro/internal/place"
	"repro/internal/rules"
	"repro/internal/sensitivity"
	"repro/internal/transient"
)

// Project is one power electronics design under EMI analysis.
type Project struct {
	Design  *layout.Design
	Circuit *netlist.Circuit

	// Models maps component references to their PEEC component models.
	Models map[string]components.Model

	// InductorOf maps a component reference to the name of the circuit
	// inductor that represents its magnetically active part (a
	// capacitor's ESL, a choke's winding). Only mapped components take
	// part in coupling extraction.
	InductorOf map[string]string

	// Sources are the switching equivalent sources (V/I elements with
	// PULSE) driving the interference prediction.
	Sources     []string
	MeasureNode string

	// HotNodeOf maps a component reference to the circuit node its body
	// is electrically tied to — the injection point for capacitive body
	// coupling (the paper's "capacitive coupling gains more influence at
	// higher frequencies"). Optional; only mapped components take part.
	HotNodeOf map[string]string

	// Order is the PEEC quadrature order (0 = peec.DefaultOrder).
	Order int

	// GroundPlane, when non-nil, models a solid copper plane at the given
	// z (typically just below the components) during coupling extraction:
	// its image currents modify both mutual and self inductances — the
	// "GND" part of the paper's Figure 11 PEEC model.
	GroundPlane *float64

	// CouplingTheta switches mutual-inductance extraction to the
	// hierarchical (tree-accelerated) evaluator with the given multipole
	// acceptance parameter θ ∈ (0, 1): far cluster pairs use a moment
	// expansion, near pairs stay exact (see peec.MutualHier). Smaller is
	// more accurate; 0 (the default) keeps the exact all-pairs Neumann
	// sums, bit-for-bit. Self-inductances are always exact — they are
	// per-component and already cached across placements.
	CouplingTheta float64

	// Solver selects the MNA factorization backend for every prediction
	// this project runs (linalg.ModeAuto, the zero value, defers to the
	// process-wide default). Carried per project rather than set globally
	// so concurrent jobs with different requests never race on a shared
	// mode switch.
	Solver linalg.SolverMode
}

func (p *Project) order() int {
	if p.Order == 0 {
		return peec.DefaultOrder
	}
	return p.Order
}

// Validate cross-checks the three views.
func (p *Project) Validate() error {
	if p.Design == nil || p.Circuit == nil {
		return fmt.Errorf("core: project needs a design and a circuit")
	}
	if err := p.Design.Validate(); err != nil {
		return err
	}
	if err := p.Circuit.Validate(); err != nil {
		return err
	}
	for ref, ind := range p.InductorOf {
		if p.Design.Find(ref) == nil {
			return fmt.Errorf("core: InductorOf references unknown component %q", ref)
		}
		e := p.Circuit.Find(ind)
		if e == nil || e.Kind != netlist.L {
			return fmt.Errorf("core: %q maps to %q which is not a circuit inductor", ref, ind)
		}
		if p.Models[ref] == nil {
			return fmt.Errorf("core: mapped component %q has no PEEC model", ref)
		}
	}
	for _, s := range p.Sources {
		e := p.Circuit.Find(s)
		if e == nil || (e.Kind != netlist.V && e.Kind != netlist.I) {
			return fmt.Errorf("core: source %q is not a V/I element", s)
		}
	}
	if len(p.HotNodeOf) > 0 {
		nodes := map[string]bool{"0": true}
		for _, n := range p.Circuit.Nodes() {
			nodes[n] = true
		}
		for ref, node := range p.HotNodeOf {
			if p.Design.Find(ref) == nil {
				return fmt.Errorf("core: HotNodeOf references unknown component %q", ref)
			}
			if p.Models[ref] == nil {
				return fmt.Errorf("core: hot-node component %q has no model", ref)
			}
			if !nodes[node] {
				return fmt.Errorf("core: %q maps to unknown circuit node %q", ref, node)
			}
		}
	}
	return nil
}

// InstanceOf returns the placed PEEC instance of a component.
func (p *Project) InstanceOf(ref string) (*components.Instance, error) {
	c := p.Design.Find(ref)
	if c == nil {
		return nil, fmt.Errorf("core: unknown component %q", ref)
	}
	m := p.Models[ref]
	if m == nil {
		return nil, fmt.Errorf("core: component %q has no PEEC model", ref)
	}
	if !c.Placed {
		return nil, fmt.Errorf("core: component %q is not placed", ref)
	}
	return &components.Instance{Ref: ref, Model: m, Center: c.Center, Rot: c.Rot}, nil
}

// MappedRefs returns the component references with both a model and a
// circuit inductor, sorted.
func (p *Project) MappedRefs() []string {
	out := make([]string, 0, len(p.InductorOf))
	for ref := range p.InductorOf {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// AllPairs returns every unordered pair of mapped components.
func (p *Project) AllPairs() [][2]string {
	refs := p.MappedRefs()
	var out [][2]string
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			out = append(out, [2]string{refs[i], refs[j]})
		}
	}
	return out
}

// ExtractCouplings computes the PEEC coupling factor for each component
// pair from the current placement — step 3 of the flow. Pairs on different
// boards couple 0 by convention (separate shielded compartments). The
// placement-invariant self-inductances are cached per component, so the
// cost per pair is one mutual-inductance integral.
func (p *Project) ExtractCouplings(pairs [][2]string) (map[[2]string]float64, error) {
	return p.ExtractCouplingsCtx(context.Background(), pairs)
}

// ExtractCouplingsCtx is ExtractCouplings with cancellation: once ctx is
// done no further field integrals start and the context's error is
// returned.
func (p *Project) ExtractCouplingsCtx(ctx context.Context, pairs [][2]string) (map[[2]string]float64, error) {
	defer engine.Phase("core.extract")()
	ctx, sp := obs.Start(ctx, "peec.extract")
	sp.Int("pairs", int64(len(pairs)))
	var h0, m0 uint64
	if sp != nil {
		h0, m0 = engine.CacheCounts()
	}
	defer func() {
		if sp != nil {
			h1, m1 := engine.CacheCounts()
			sp.Int("cache_hits", int64(h1-h0))
			sp.Int("cache_misses", int64(m1-m0))
		}
		sp.End()
	}()
	// Phase 1: build every needed conductor and its (placement-invariant)
	// self-inductance, fanned out over the engine pool. Each ref writes
	// only its own slot, so the result is scheduling-independent.
	refSet := map[string]bool{}
	var refs []string
	for _, pair := range pairs {
		for _, r := range pair {
			if !refSet[r] {
				refSet[r] = true
				refs = append(refs, r)
			}
		}
	}
	type refField struct {
		cond *peec.Conductor
		l    float64
		tree *peec.SegTree // hierarchical evaluator (CouplingTheta > 0)
		img  *peec.SegTree // image across the ground plane, if any
	}
	fields, err := engine.MapCtx(ctx, len(refs), func(i int) (refField, error) {
		inst, err := p.InstanceOf(refs[i])
		if err != nil {
			return refField{}, err
		}
		c := inst.Conductor()
		rf := refField{cond: c}
		if len(c.Segments) > 0 {
			if p.GroundPlane != nil {
				rf.l = c.SelfInductanceWithPlane(*p.GroundPlane, p.order())
			} else {
				rf.l = c.SelfInductanceOrder(p.order())
			}
		}
		if p.CouplingTheta > 0 {
			rf.tree = peec.NewSegTree(c)
			if p.GroundPlane != nil {
				rf.img = peec.NewSegTree(c.ImageAcross(*p.GroundPlane))
			}
		}
		return rf, nil
	})
	if err != nil {
		return nil, err
	}
	conds := make(map[string]*peec.Conductor, len(refs))
	selfL := make(map[string]float64, len(refs))
	trees := make(map[string]*peec.SegTree, len(refs))
	imgs := make(map[string]*peec.SegTree, len(refs))
	for i, ref := range refs {
		conds[ref] = fields[i].cond
		selfL[ref] = fields[i].l
		trees[ref] = fields[i].tree
		imgs[ref] = fields[i].img
	}

	// Phase 2: one mutual-inductance integral per pair, in parallel.
	ks := make([]float64, len(pairs))
	if err := engine.ForEachCtx(ctx, len(pairs), func(i int) error {
		pair := pairs[i]
		if p.Design.Find(pair[0]).Board != p.Design.Find(pair[1]).Board {
			return nil
		}
		la, lb := selfL[pair[0]], selfL[pair[1]]
		if la <= 0 || lb <= 0 {
			return nil
		}
		var m float64
		switch {
		case p.CouplingTheta > 0 && p.GroundPlane != nil:
			// Mirror MutualWithPlane: direct term plus the image of b
			// reflected across the plane, both tree-accelerated.
			m = peec.MutualHier(trees[pair[0]], trees[pair[1]], p.order(), p.CouplingTheta) +
				peec.MutualHier(trees[pair[0]], imgs[pair[1]], p.order(), p.CouplingTheta)
		case p.CouplingTheta > 0:
			m = peec.MutualHier(trees[pair[0]], trees[pair[1]], p.order(), p.CouplingTheta)
		case p.GroundPlane != nil:
			m = peec.MutualWithPlane(conds[pair[0]], conds[pair[1]], *p.GroundPlane, p.order())
		default:
			m = peec.Mutual(conds[pair[0]], conds[pair[1]], p.order())
		}
		k := m / math.Sqrt(la*lb)
		if k > 1 {
			k = 1
		} else if k < -1 {
			k = -1
		}
		ks[i] = k
		return nil
	}); err != nil {
		return nil, err
	}

	out := make(map[[2]string]float64, len(pairs))
	for i, pair := range pairs {
		out[pair] = ks[i]
	}
	return out, nil
}

// CircuitWithCouplings returns a clone of the circuit with the K elements
// set from extracted coupling factors (step 4's input). The result is
// element for element what calling SetCoupling once per pair, in sorted
// pair order, would produce; the K elements are indexed by unordered
// inductor pair once, so the insertion is linear in the pair count
// rather than one element scan per pair.
func (p *Project) CircuitWithCouplings(ks map[[2]string]float64) *netlist.Circuit {
	ckt := p.Circuit.Clone()
	// Deterministic insertion order.
	pairs := make([][2]string, 0, len(ks))
	for pair := range ks {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	// SetCoupling updates the first K in element order that couples the
	// pair in either orientation, so the index keeps the first one.
	unordered := func(la, lb string) [2]string {
		if lb < la {
			la, lb = lb, la
		}
		return [2]string{la, lb}
	}
	kOf := make(map[[2]string]*netlist.Element, len(pairs))
	for _, e := range ckt.Elements {
		if e.Kind == netlist.K {
			if key := unordered(e.LA, e.LB); kOf[key] == nil {
				kOf[key] = e
			}
		}
	}
	for _, pair := range pairs {
		la, lb := p.InductorOf[pair[0]], p.InductorOf[pair[1]]
		if la == "" || lb == "" {
			continue
		}
		key := unordered(la, lb)
		if e := kOf[key]; e != nil {
			e.Coup = ks[pair]
			continue
		}
		kOf[key] = ckt.AddK("K_"+la+"_"+lb, la, lb, ks[pair])
	}
	return ckt
}

// CapPairs returns every unordered pair of components with distinct hot
// nodes — the candidates for capacitive body coupling.
func (p *Project) CapPairs() [][2]string {
	refs := make([]string, 0, len(p.HotNodeOf))
	for ref := range p.HotNodeOf {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	var out [][2]string
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			if p.HotNodeOf[refs[i]] != p.HotNodeOf[refs[j]] {
				out = append(out, [2]string{refs[i], refs[j]})
			}
		}
	}
	return out
}

// capExtractionMaxDist bounds the capacitive extraction: body pairs
// farther apart couple through well below a femtofarad and are skipped.
const capExtractionMaxDist = 0.06

// ExtractBodyCapacitances computes the panel-method coupling capacitances
// of the given component pairs from the current placement.
func (p *Project) ExtractBodyCapacitances(pairs [][2]string) (map[[2]string]float64, error) {
	out := map[[2]string]float64{}
	for _, pair := range pairs {
		ca, cb := p.Design.Find(pair[0]), p.Design.Find(pair[1])
		if ca == nil || cb == nil {
			return nil, fmt.Errorf("core: unknown pair %v", pair)
		}
		if !ca.Placed || !cb.Placed || ca.Board != cb.Board ||
			ca.Center.Dist(cb.Center) > capExtractionMaxDist {
			continue
		}
		ia := &components.Instance{Ref: pair[0], Model: p.Models[pair[0]], Center: ca.Center, Rot: ca.Rot}
		ib := &components.Instance{Ref: pair[1], Model: p.Models[pair[1]], Center: cb.Center, Rot: cb.Rot}
		if ia.Model == nil || ib.Model == nil {
			return nil, fmt.Errorf("core: pair %v lacks models", pair)
		}
		c, err := components.BodyCapacitance(ia, ib, 0)
		if err != nil {
			return nil, err
		}
		if c > 1e-18 {
			out[pair] = c
		}
	}
	return out, nil
}

// PredictOptions configures an interference prediction.
type PredictOptions struct {
	WithCouplings  bool
	WithCapacitive bool        // include panel-method body capacitances
	Pairs          [][2]string // nil = all mapped pairs
	MaxFreq        float64
}

// Predict runs the conducted-emission prediction — without couplings it is
// the paper's Figure 13 (no correlation with measurement), with couplings
// its Figure 14.
func (p *Project) Predict(opt PredictOptions) (*emi.Spectrum, error) {
	return p.PredictCtx(context.Background(), opt)
}

// PredictCtx is Predict with cancellation: coupling extraction and the
// harmonic solves both stop once ctx is done.
func (p *Project) PredictCtx(ctx context.Context, opt PredictOptions) (*emi.Spectrum, error) {
	ckt, err := p.buildPredictionCircuit(ctx, opt)
	if err != nil {
		return nil, err
	}
	if opt.WithCapacitive {
		cs, err := p.ExtractBodyCapacitances(p.CapPairs())
		if err != nil {
			return nil, err
		}
		pairs := make([][2]string, 0, len(cs))
		for pair := range cs {
			pairs = append(pairs, pair)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, pair := range pairs {
			ckt.AddC("Ccap_"+pair[0]+"_"+pair[1],
				p.HotNodeOf[pair[0]], p.HotNodeOf[pair[1]], cs[pair])
		}
	}
	pred := &emi.Predictor{
		Circuit:     ckt,
		Sources:     p.Sources,
		MeasureNode: p.MeasureNode,
		MaxFreq:     opt.MaxFreq,
		Solver:      p.Solver,
	}
	return pred.SpectrumCtx(ctx)
}

// buildPredictionCircuit assembles the circuit variant an option set asks
// for (shared by the frequency- and time-domain predictions).
func (p *Project) buildPredictionCircuit(ctx context.Context, opt PredictOptions) (*netlist.Circuit, error) {
	ckt := p.Circuit.Clone()
	if opt.WithCouplings {
		pairs := opt.Pairs
		if pairs == nil {
			pairs = p.AllPairs()
		}
		ks, err := p.ExtractCouplingsCtx(ctx, pairs)
		if err != nil {
			return nil, err
		}
		ckt = p.CircuitWithCouplings(ks)
	} else {
		ckt.RemoveCouplings()
	}
	return ckt, nil
}

// PredictTransient cross-checks the harmonic-domain prediction by brute
// force: the same circuit is simulated in the time domain (the switching
// sources run their PULSE waveforms directly) and a CISPR-16-style
// measuring receiver with the given detector is tuned across the first
// harmonics. Startup transients are part of the waveform; the receiver's
// settling exclusion and the simulated duration must be chosen together
// (duration = periods of the first source's switching period).
func (p *Project) PredictTransient(opt PredictOptions, periods int, dt float64, det emi.Detector, harmonics int) (*emi.Spectrum, error) {
	ckt, err := p.buildPredictionCircuit(context.Background(), opt)
	if err != nil {
		return nil, err
	}
	if len(p.Sources) == 0 {
		return nil, fmt.Errorf("core: no switching sources")
	}
	src := ckt.Find(p.Sources[0])
	if src == nil || src.Src == nil || src.Src.Pulse == nil || src.Src.Pulse.Period <= 0 {
		return nil, fmt.Errorf("core: source %q has no periodic pulse", p.Sources[0])
	}
	period := src.Src.Pulse.Period
	res, err := transient.Simulate(ckt, transient.Options{
		Step:   dt,
		End:    float64(periods) * period,
		InitDC: true,
	})
	if err != nil {
		return nil, err
	}
	wave := res.Node(p.MeasureNode)
	if wave == nil {
		return nil, fmt.Errorf("core: measurement node %q not in circuit", p.MeasureNode)
	}
	// Exclude the remaining periodic-steady-state buildup: keep the last
	// two thirds for the receiver.
	wave = wave[len(wave)/3:]
	f1 := 1 / period
	freqs := make([]float64, harmonics)
	for k := range freqs {
		freqs[k] = float64(k+1) * f1
	}
	// Resolution: a tenth of the harmonic spacing keeps the skirt leakage
	// of strong neighbouring lines below the weakest harmonics of
	// interest (the receiver's 4-pole selectivity is ≈ 90 dB one line
	// away at this ratio); shortened detector time constants fit the
	// simulated duration.
	band := emi.ReceiverBand{
		Name:        "sim",
		RBW:         f1 / 10,
		ChargeTC:    2 * period,
		DischargeTC: 40 * period,
		MeterTC:     20 * period,
	}
	return emi.MeasureSpectrum(wave, dt, freqs, det, &band)
}

// VirtualMeasurement stands in for the paper's CISPR 25 lab measurement:
// the complete coupled model plus a deterministic receiver ripple.
func (p *Project) VirtualMeasurement(maxFreq, rippleDB float64, seed uint64) (*emi.Spectrum, error) {
	full, err := p.Predict(PredictOptions{WithCouplings: true, MaxFreq: maxFreq})
	if err != nil {
		return nil, err
	}
	return emi.Measured(full, rippleDB, seed), nil
}

// RankCouplings runs the sensitivity analysis (step 2) over the mapped
// inductors and returns the ranking in component-reference terms.
func (p *Project) RankCouplings(probeK, maxFreq float64) (sensitivity.Ranking, error) {
	return p.RankCouplingsCtx(context.Background(), probeK, maxFreq)
}

// RankCouplingsCtx is RankCouplings with cancellation.
func (p *Project) RankCouplingsCtx(ctx context.Context, probeK, maxFreq float64) (sensitivity.Ranking, error) {
	refOf := map[string]string{}
	var cands []string
	for ref, ind := range p.InductorOf {
		refOf[ind] = ref
		cands = append(cands, ind)
	}
	sort.Strings(cands)
	if len(p.Sources) == 0 {
		return nil, fmt.Errorf("core: project has no switching sources")
	}
	base := p.Circuit.Clone()
	base.RemoveCouplings()
	rank, err := sensitivity.RankCtx(ctx, base, p.Sources[0], p.MeasureNode, sensitivity.Options{
		ProbeK:     probeK,
		MaxFreq:    maxFreq,
		Candidates: cands,
	})
	if err != nil {
		return nil, err
	}
	// Translate inductor names back to component references.
	for i := range rank {
		rank[i].LA = refOf[rank[i].LA]
		rank[i].LB = refOf[rank[i].LB]
	}
	return rank, nil
}

// DeriveRules computes PEMD minimum-distance rules (step 5) for the given
// component pairs and installs them in the design. Pairs that never exceed
// kMax are skipped. Returns the number of rules added.
func (p *Project) DeriveRules(pairs [][2]string, kMax float64) (int, error) {
	if p.Design.Rules == nil {
		p.Design.Rules = rules.NewSet(nil)
	}
	added := 0
	for _, pair := range pairs {
		ma, mb := p.Models[pair[0]], p.Models[pair[1]]
		if ma == nil || mb == nil {
			return added, fmt.Errorf("core: pair %v lacks PEEC models", pair)
		}
		pemd, err := rules.DerivePEMD(ma, mb, rules.DeriveOptions{KMax: kMax, Order: p.Order})
		if err != nil {
			return added, err
		}
		if pemd <= 0 {
			continue
		}
		p.Design.Rules.Add(rules.Rule{RefA: pair[0], RefB: pair[1], PEMD: pemd})
		added++
	}
	return added, nil
}

// AutoPlace runs the placement tool (step 6) on the design.
func (p *Project) AutoPlace(opt place.Options) (*place.Result, error) {
	return place.AutoPlace(p.Design, opt)
}

// AutoPlaceCtx is AutoPlace with cancellation (see place.AutoPlaceCtx).
func (p *Project) AutoPlaceCtx(ctx context.Context, opt place.Options) (*place.Result, error) {
	return place.AutoPlaceCtx(ctx, p.Design, opt)
}

// Verify runs the final design-rule check.
func (p *Project) Verify() *drc.Report {
	return drc.Check(p.Design)
}

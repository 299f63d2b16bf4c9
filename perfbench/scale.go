package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/obs"
)

const (
	scaleTheta   = 0.3 // hierarchical coupling-extraction acceptance
	scaleMaxFreq = 5e6 // top of the predicted band, Hz
	// scaleMinBoards keeps at least tailMin boards beyond the p90.
	scaleMinBoards = 100
	// scaleTolDB bounds the per-harmonic disagreement between the timed
	// (auto backend) spectrum and the untimed dense reference.
	scaleTolDB = 1e-6
	// scaleFloorDB is the lowest level a harmonic may read: 100 dB above
	// the ≈ −200 dBµV roundoff floor that cascaded boards sink to.
	scaleFloorDB = -100
)

// scaleBranches is the board-size cycle: board i has
// scaleBranches[i % len] parallel branches (3 PEEC-mapped parts each,
// ≈32 segments per branch), so every pass sees the same size mix. The
// cycle has an odd number of sizes so that the median and the p90 fall
// inside one size class (the middle and the largest) rather than on the
// gap between two, where they would jump between the classes' costs.
var scaleBranches = []int{10, 15, 20, 25, 30}

// scaleBoard generates board i of the seed's sequence.
func scaleBoard(seed int64, i int) *core.Project {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	p := filterBoard(rng, scaleBranches[((i%len(scaleBranches))+len(scaleBranches))%len(scaleBranches)])
	p.CouplingTheta = scaleTheta
	return p
}

// scaleChain is one op: extract every pairwise coupling, insert the K
// elements, compile the band solver with the auto backend and predict
// the spectrum — the chain explore's margin objective runs per
// candidate.
func scaleChain(ctx context.Context, p *core.Project) (*netlist.Circuit, *emi.Spectrum, error) {
	ctx, sp := obs.Start(ctx, "scale.board")
	defer sp.End()
	ks, err := p.ExtractCouplingsCtx(ctx, p.AllPairs())
	if err != nil {
		return nil, nil, err
	}
	_, csp := obs.Start(ctx, "core.couple")
	ckt := p.CircuitWithCouplings(ks)
	csp.End()
	_, msp := obs.Start(ctx, "mna.compile")
	bs, err := emi.NewBandSolver(ckt, p.Sources, p.MeasureNode, 0, scaleMaxFreq)
	if err == nil {
		bs.SetSolver(linalg.ModeAuto)
	}
	msp.End()
	if err != nil {
		return nil, nil, err
	}
	spec, err := bs.SpectrumCtx(ctx)
	return ckt, spec, err
}

// checkBoard compares a timed spectrum with the dense-backend reference
// and with the roundoff-floor bound.
func checkBoard(ctx context.Context, p *core.Project, ckt *netlist.Circuit, spec *emi.Spectrum) error {
	bs, err := emi.NewBandSolver(ckt, p.Sources, p.MeasureNode, 0, scaleMaxFreq)
	if err != nil {
		return err
	}
	bs.SetSolver(linalg.ModeDense)
	ref, err := bs.SpectrumCtx(ctx)
	if err != nil {
		return err
	}
	if len(ref.DB) != len(spec.DB) {
		return fmt.Errorf("%d harmonics, dense reference %d", len(spec.DB), len(ref.DB))
	}
	for i, db := range spec.DB {
		if !(math.Abs(db-ref.DB[i]) <= scaleTolDB) {
			return fmt.Errorf("harmonic %g Hz: %v dBµV, dense %v dBµV", spec.Freqs[i], db, ref.DB[i])
		}
		if !(db >= scaleFloorDB) {
			return fmt.Errorf("harmonic %g Hz: level %v dBµV is in the roundoff floor", spec.Freqs[i], db)
		}
	}
	return nil
}

// scalePass runs boards of the seed's sequence until the time is up and
// enough boards were timed. Answer checks run between boards, outside
// both the op timings and the pass's measured time; the engine work each
// check did is returned so the traced pass can report the workload's
// counters alone.
func scalePass(ctx context.Context, opt options, res *result) (lat []float64, measured time.Duration, rate float64, checks []engine.Stats) {
	budget := time.Duration(opt.seconds * float64(time.Second))
	// Throughput is the median over windows of one board-size cycle each,
	// so every window holds the same size mix and one burst of machine
	// noise moves one window, not the figure.
	var rates []float64
	var window time.Duration
	for i := 0; ; i++ {
		if measured >= 3*budget || measured >= budget && len(lat) >= scaleMinBoards {
			break
		}
		t0 := time.Now()
		p := scaleBoard(opt.seed, i)
		t1 := time.Now()
		ckt, spec, err := scaleChain(ctx, p)
		t2 := time.Now()
		measured += t2.Sub(t0)
		if window += t2.Sub(t0); (i+1)%len(scaleBranches) == 0 {
			rates = append(rates, float64(len(scaleBranches))/window.Seconds())
			window = 0
		}
		res.attempted++
		if err != nil {
			res.fail("board %d: %v", i, err)
			continue
		}
		lat = append(lat, float64(t2.Sub(t1))/1e6)
		before := engine.Snapshot()
		// Untraced: the reference solve is not the workload's work.
		if err := checkBoard(context.Background(), p, ckt, spec); err != nil {
			res.fail("board %d (%d parts): %v", i, len(p.Design.Comps), err)
		}
		checks = append(checks, subStats(engine.Snapshot(), before))
	}
	return lat, measured, median(rates), checks
}

func runScale(opt options) (*result, error) {
	res := &result{}
	ctx := context.Background()
	setups := make([]float64, setupRepeats)
	for i := range setups {
		freshEngine()
		t0 := time.Now()
		// Set-up generates and runs one board outside the measured
		// sequence, building whatever the program constructs lazily.
		if _, _, err := scaleChain(ctx, scaleBoard(opt.seed, -1-i)); err != nil {
			return nil, fmt.Errorf("scale set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	res.add("setup_s", "s", median(setups), len(setups))

	freshEngine()
	runtime.GC()
	lat, _, rate, _ := scalePass(ctx, opt, res)
	res.add("ops_per_s", "1/s", rate, len(lat))
	res.addPct("op_p50_ms", "ms", lat, 0.5)
	res.addPct("op_tail_ms", "ms", lat, tailQ[opt.workload])

	if opt.trace {
		freshEngine()
		runtime.GC()
		tr := obs.NewTrace("perfbench")
		tr.SetCap(spanCap)
		tlat, tmeasured, trate, checks := scalePass(obs.WithTrace(ctx, tr), opt, res)
		tr.Finish()
		work := engine.Snapshot()
		for _, c := range checks {
			work = subStats(work, c)
		}
		addEngineRecords(res, work)
		// The answer checks ran inside the trace window but outside
		// every span and the measured time, so the measured time is the
		// window that spans should cover.
		spans, _ := fromObs(tr)
		addLayerRecords(res, spans, tmeasured)
		res.add("trace.dropped_spans", "count", float64(tr.Dropped()), tr.Len())
		res.add("trace.overhead_frac", "frac", 1-trate/rate, len(tlat))
	}
	return res, nil
}

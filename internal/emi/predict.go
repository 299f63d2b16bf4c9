package emi

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/mna"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Spectrum is a conducted-emission spectrum in dBµV over discrete
// frequencies (ascending).
type Spectrum struct {
	Freqs []float64
	DB    []float64 // dBµV (RMS convention)
}

// Predictor computes the conducted-emission spectrum of a converter
// circuit: the paper's interference prediction. Each switching device is
// represented by a V or I element carrying a PULSE description — the
// standard equivalent-source substitution, e.g. a voltage source in the
// diode position and a current source in the transistor position. All
// pulse sources must share the same switching period; the spectrum is
// obtained by solving the circuit at every harmonic of that frequency
// (with all sources driven coherently by their own Fourier coefficients)
// and reading the measurement node — typically a LISN receiver port.
type Predictor struct {
	Circuit     *netlist.Circuit
	SourceName  string   // single switching source (legacy convenience)
	Sources     []string // all switching sources; empty = [SourceName]
	MeasureNode string
	Harmonics   int     // number of harmonics; 0 = enough to reach BandStop
	MaxFreq     float64 // 0 = BandStop

	// Solver overrides the MNA factorization backend for this prediction
	// only (ModeAuto, the zero value, defers to the process default). It
	// applies to the prediction's own compiled analyzer, so a per-request
	// choice never races another job's.
	Solver linalg.SolverMode
}

// Spectrum runs the prediction. The circuit is not modified.
func (p *Predictor) Spectrum() (*Spectrum, error) {
	return p.SpectrumCtx(context.Background())
}

// BandSolver evaluates emission spectra repeatedly over one circuit: it
// clones the circuit once and compiles one analyzer, which every
// prediction's harmonic sweep shares. It is the engine behind Predictor
// and the per-worker engine of the sensitivity ranking, which re-predicts
// the band once per probed inductor pair. Not safe for concurrent use;
// create one per goroutine.
type BandSolver struct {
	an      *mna.Analyzer
	srcs    []*netlist.Element
	slots   []int // each source's index in the analyzer's Drive phasors
	ks      []int
	f1      float64
	measure string
}

// NewBandSolver prepares a solver over its own clone of the circuit. The
// harmonic grid covers multiples of the sources' shared switching
// frequency up to maxFreq (0 = the CISPR band stop); harmonics > 0 caps
// the harmonic count.
func NewBandSolver(ckt *netlist.Circuit, sources []string, measure string, harmonics int, maxFreq float64) (*BandSolver, error) {
	wc := ckt.Clone()
	b := &BandSolver{measure: measure}
	for _, name := range sources {
		e := wc.Find(name)
		if e == nil || (e.Kind != netlist.V && e.Kind != netlist.I) ||
			e.Src == nil || e.Src.Pulse == nil || e.Src.Pulse.Period <= 0 {
			return nil, fmt.Errorf("emi: %q is not a periodic PULSE source", name)
		}
		b.srcs = append(b.srcs, e)
	}
	period := b.srcs[0].Src.Pulse.Period
	for _, e := range b.srcs[1:] {
		if e.Src.Pulse.Period != period {
			return nil, fmt.Errorf("emi: source %q period %g differs from %g",
				e.Name, e.Src.Pulse.Period, period)
		}
	}
	b.f1 = 1 / period
	maxF := maxFreq
	if maxF <= 0 {
		maxF = BandStop
	}
	n := harmonics
	if n <= 0 {
		n = int(maxF / b.f1)
	}
	if n < 1 {
		n = 1
	}
	for k := 1; k <= n; k++ {
		if float64(k)*b.f1 > maxF {
			break
		}
		b.ks = append(b.ks, k)
	}
	if len(b.ks) == 0 {
		return nil, fmt.Errorf("emi: no harmonics below %g Hz", maxF)
	}
	an, err := mna.NewAnalyzer(wc)
	if err != nil {
		return nil, err
	}
	b.an = an
	for _, e := range b.srcs {
		slot, _ := an.SourceIndex(e.Name) // found: e is a V/I element of wc
		b.slots = append(b.slots, slot)
	}
	return b, nil
}

// Analyzer exposes the compiled analyzer, e.g. for probe couplings.
func (b *BandSolver) Analyzer() *mna.Analyzer { return b.an }

// SetSolver overrides the factorization backend of the compiled analyzer
// (see mna.Analyzer.SetSolver). ModeAuto restores the default heuristic.
func (b *BandSolver) SetSolver(m linalg.SolverMode) { b.an.SetSolver(m) }

// Freqs returns the harmonic grid frequencies, ascending.
func (b *BandSolver) Freqs() []float64 {
	out := make([]float64, len(b.ks))
	for i, k := range b.ks {
		out[i] = float64(k) * b.f1
	}
	return out
}

// drive sets grid point i's source phasors: each source is driven by its
// own Fourier coefficient c_k, as the RMS phasor √2·|c_k|∠c_k, so the
// solve superposes all sources coherently.
func (b *BandSolver) drive(i int, src []complex128) {
	k := b.ks[i]
	for j, e := range b.srcs {
		ck := TrapezoidHarmonic(e.Src.Pulse, k)
		src[b.slots[j]] = cmplx.Rect(math.Sqrt2*cmplx.Abs(ck), cmplx.Phase(ck))
	}
}

// SpectrumCtx computes the whole band: the harmonics fan out over the
// engine pool as one sweep of the compiled analyzer (see mna.SweepCtx),
// so the spectrum is bit-identical under any parallelism. Once ctx is
// done no further harmonic solves start and the context's error is
// returned.
func (b *BandSolver) SpectrumCtx(ctx context.Context) (*Spectrum, error) {
	ctx, sp := obs.Start(ctx, "emi.band")
	sp.Int("harmonics", int64(len(b.ks)))
	defer sp.End()
	out := &Spectrum{
		Freqs: b.Freqs(),
		DB:    make([]float64, len(b.ks)),
	}
	err := b.an.SweepCtx(ctx, out.Freqs, b.drive, func(i int, sol *mna.Solution) error {
		out.DB[i] = DBuV(cmplx.Abs(sol.NodeVoltage(b.measure)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SpectrumCtx is Spectrum with cancellation: once ctx is done no further
// harmonic solves start and the context's error is returned.
func (p *Predictor) SpectrumCtx(ctx context.Context) (*Spectrum, error) {
	names := p.Sources
	if len(names) == 0 {
		names = []string{p.SourceName}
	}
	bs, err := NewBandSolver(p.Circuit, names, p.MeasureNode, p.Harmonics, p.MaxFreq)
	if err != nil {
		return nil, err
	}
	bs.SetSolver(p.Solver)
	defer engine.Phase("emi.harmonics")()
	ctx, sp := obs.Start(ctx, "emi.spectrum")
	sp.Int("harmonics", int64(len(bs.ks)))
	sp.Int("sources", int64(len(names)))
	defer sp.End()
	return bs.SpectrumCtx(ctx)
}

// InBand returns the sub-spectrum within [lo, hi].
func (s *Spectrum) InBand(lo, hi float64) *Spectrum {
	out := &Spectrum{}
	for i, f := range s.Freqs {
		if f >= lo && f <= hi {
			out.Freqs = append(out.Freqs, f)
			out.DB = append(out.DB, s.DB[i])
		}
	}
	return out
}

// Max returns the highest level and its frequency.
func (s *Spectrum) Max() (f, db float64) {
	db = math.Inf(-1)
	for i, v := range s.DB {
		if v > db {
			db, f = v, s.Freqs[i]
		}
	}
	return f, db
}

// Violation is a spectrum point exceeding its CISPR limit.
type Violation struct {
	Freq    float64
	Level   float64
	LimitDB float64
}

// Violations returns all in-service-band points above the Class-5 limit.
func (s *Spectrum) Violations() []Violation {
	var out []Violation
	for i, f := range s.Freqs {
		limit, inBand := Limit(f)
		if inBand && s.DB[i] > limit {
			out = append(out, Violation{Freq: f, Level: s.DB[i], LimitDB: limit})
		}
	}
	return out
}

// WorstMargin returns the smallest (limit − level) over the protected
// bands; negative means a violation. An empty overlap returns +Inf.
func (s *Spectrum) WorstMargin() float64 {
	margin := math.Inf(1)
	for i, f := range s.Freqs {
		limit, inBand := Limit(f)
		if !inBand {
			continue
		}
		if m := limit - s.DB[i]; m < margin {
			margin = m
		}
	}
	return margin
}

// Comparison quantifies the agreement of two spectra on a shared frequency
// grid — how the paper judges prediction vs measurement (Figures 12–14).
type Comparison struct {
	MaxAbsDelta  float64 // worst disagreement in dB
	MeanAbsDelta float64 // average disagreement in dB
	Correlation  float64 // Pearson correlation of the dB traces
	N            int
}

// compareRTol is the relative tolerance under which two grid frequencies
// count as the same point. Grids computed independently (k·f1 versus a
// harmonic enumeration, or a round-tripped TSV) agree only to roundoff,
// so exact float64 equality would silently drop every shared point.
const compareRTol = 1e-9

// sameFreq reports whether fa and fb are the same grid point up to
// relative roundoff.
func sameFreq(fa, fb float64) bool {
	scale := math.Max(math.Abs(fa), math.Abs(fb))
	return math.Abs(fa-fb) <= compareRTol*scale
}

// Compare evaluates both spectra at the frequencies they share, matching
// grid points within a relative tolerance (spectra are ascending by
// construction; the merge walks both grids once).
func Compare(a, b *Spectrum) Comparison {
	var da, db []float64
	for i, j := 0, 0; i < len(a.Freqs) && j < len(b.Freqs); {
		fa, fb := a.Freqs[i], b.Freqs[j]
		switch {
		case sameFreq(fa, fb):
			da = append(da, a.DB[i])
			db = append(db, b.DB[j])
			i++
			j++
		case fa < fb:
			i++
		default:
			j++
		}
	}
	out := Comparison{N: len(da)}
	if len(da) == 0 {
		return out
	}
	var sumAbs, maxAbs float64
	var ma, mb float64
	for i := range da {
		d := math.Abs(da[i] - db[i])
		sumAbs += d
		if d > maxAbs {
			maxAbs = d
		}
		ma += da[i]
		mb += db[i]
	}
	n := float64(len(da))
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range da {
		cov += (da[i] - ma) * (db[i] - mb)
		va += (da[i] - ma) * (da[i] - ma)
		vb += (db[i] - mb) * (db[i] - mb)
	}
	out.MaxAbsDelta = maxAbs
	out.MeanAbsDelta = sumAbs / n
	if va > 0 && vb > 0 {
		out.Correlation = cov / math.Sqrt(va*vb)
	}
	return out
}

// Measured derives a virtual measurement from a reference spectrum: the
// complete coupled model plus a deterministic, seeded receiver ripple of
// the given peak amplitude in dB. This stands in for the paper's CISPR 25
// lab measurement (see DESIGN.md §2).
func Measured(ref *Spectrum, rippleDB float64, seed uint64) *Spectrum {
	out := &Spectrum{
		Freqs: append([]float64(nil), ref.Freqs...),
		DB:    make([]float64, len(ref.DB)),
	}
	state := seed*2862933555777941757 + 3037000493
	for i, db := range ref.DB {
		// xorshift-style deterministic noise in [-1, 1].
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		u := float64(state%2000)/1000 - 1
		out.DB[i] = db + rippleDB*u
	}
	return out
}

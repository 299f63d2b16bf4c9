package emi

import (
	"context"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/fft"
	"repro/internal/netlist"
)

func TestLimitServiceBands(t *testing.T) {
	t.Parallel()
	cases := []struct {
		f      float64
		want   float64
		inBand bool
	}{
		{200e3, 70, true},
		{1e6, 54, true},
		{6e6, 53, true},
		{27e6, 44, true},
		{40e6, 44, true},
		{100e6, 38, true},
		{400e3, 0, false},  // between LW and MW
		{10e6, 0, false},   // between SW and CB
		{100e3, 70, false}, // below band
		{200e6, 38, false}, // above band
	}
	for _, c := range cases {
		got, inBand := Limit(c.f)
		if inBand != c.inBand {
			t.Errorf("Limit(%g): inBand = %v, want %v", c.f, inBand, c.inBand)
		}
		if c.inBand && got != c.want {
			t.Errorf("Limit(%g) = %v, want %v", c.f, got, c.want)
		}
	}
	// Interpolation is monotone between LW (70) and MW (54).
	l1, _ := Limit(350e3)
	l2, _ := Limit(500e3)
	if !(l1 <= 70 && l1 >= l2 && l2 >= 54) {
		t.Errorf("interpolated limits not monotone: %v %v", l1, l2)
	}
}

func TestLimitClass(t *testing.T) {
	t.Parallel()
	// Class 5 equals the base limit; lower classes relax in the band's
	// step: LW relaxes 10 dB per class.
	for class, want := range map[int]float64{5: 70, 4: 80, 3: 90, 2: 100, 1: 110} {
		got, inBand := LimitClass(class, 200e3)
		if !inBand || got != want {
			t.Errorf("LW class %d = %v (inBand %v), want %v", class, got, inBand, want)
		}
	}
	// FM relaxes 6 dB per class.
	if got, _ := LimitClass(3, 100e6); got != 38+12 {
		t.Errorf("FM class 3 = %v", got)
	}
	// Clamping.
	lo, _ := LimitClass(0, 200e3)
	hi, _ := LimitClass(9, 200e3)
	if lo != 110 || hi != 70 {
		t.Errorf("clamped = %v, %v", lo, hi)
	}
	// Classes are monotone everywhere in the band.
	for _, f := range []float64{200e3, 1e6, 6e6, 27e6, 40e6, 90e6, 400e3, 10e6} {
		prev := -1000.0
		for class := 5; class >= 1; class-- {
			l, _ := LimitClass(class, f)
			if l < prev {
				t.Errorf("class %d at %g Hz: %v below class %d's %v", class, f, l, class+1, prev)
			}
			prev = l
		}
	}
}

func TestDBuVRoundTrip(t *testing.T) {
	t.Parallel()
	for _, v := range []float64{1e-6, 1e-3, 1, 17.3e-6} {
		db := DBuV(v)
		if math.Abs(FromDBuV(db)-v)/v > 1e-12 {
			t.Errorf("round trip %v → %v → %v", v, db, FromDBuV(db))
		}
	}
	if DBuV(1e-6) != 0 {
		t.Errorf("1 µV = %v dBµV, want 0", DBuV(1e-6))
	}
	if DBuV(0) != -200 || DBuV(-1) != -200 {
		t.Error("non-positive voltage must floor at -200")
	}
}

func TestAddLISNStructure(t *testing.T) {
	t.Parallel()
	c := &netlist.Circuit{}
	c.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	meas := AddLISN(c, "lisnP", "bat", "vin")
	c.AddR("Rdut", "vin", "0", 10)
	if meas != "lisnP_meas" {
		t.Errorf("measure node = %q", meas)
	}
	if err := ValidateLISN(c, "lisnP"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateLISN(c, "nope"); err == nil {
		t.Error("missing LISN must fail validation")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrapezoidHarmonicsAgainstFFT(t *testing.T) {
	t.Parallel()
	// The analytic Fourier coefficients must match an FFT of the sampled
	// waveform.
	p := &netlist.Pulse{
		V1: 0, V2: 12, Delay: 0.3e-6,
		Rise: 50e-9, Fall: 80e-9, Width: 1.7e-6, Period: 5e-6,
	}
	const n = 4096
	samples := make([]complex128, n)
	for i := range samples {
		samples[i] = complex(p.At(float64(i)*p.Period/n), 0)
	}
	spec := fft.FFT(samples)
	for k := 0; k <= 20; k++ {
		want := spec[k] / complex(n, 0)
		got := TrapezoidHarmonic(p, k)
		if cmplx.Abs(got-want) > 2e-3*(cmplx.Abs(want)+1) {
			t.Errorf("c_%d = %v, want %v", k, got, want)
		}
	}
}

func TestTrapezoidHarmonicEnvelope(t *testing.T) {
	t.Parallel()
	// Beyond 1/(π·t_rise) the envelope falls at 40 dB/decade: c at 10× the
	// corner must be well below c just above it.
	p := &netlist.Pulse{V1: 0, V2: 1, Rise: 100e-9, Fall: 100e-9, Width: 2.4e-6, Period: 5e-6}
	f1 := 1 / p.Period
	corner := 1 / (math.Pi * p.Rise)
	kC := int(corner / f1)
	kHi := 10 * kC
	cC := cmplx.Abs(TrapezoidHarmonic(p, kC))
	cHi := cmplx.Abs(TrapezoidHarmonic(p, kHi))
	// 40 dB/decade means a factor 100; allow slack for sinc ripple.
	if cHi > cC/20 {
		t.Errorf("harmonic envelope too flat: c(corner)=%v c(10×corner)=%v", cC, cHi)
	}
	// DC coefficient equals the duty-weighted average.
	dc := real(TrapezoidHarmonic(p, 0))
	wantDC := (p.Width + p.Rise) / p.Period // V2·(w+tr/2+tf/2)/T with V1=0
	if math.Abs(dc-wantDC) > 1e-9 {
		t.Errorf("DC = %v, want %v", dc, wantDC)
	}
}

func TestHarmonicRMS(t *testing.T) {
	t.Parallel()
	p := &netlist.Pulse{V1: 0, V2: 1, Rise: 10e-9, Fall: 10e-9, Width: 2.5e-6, Period: 5e-6}
	// Square-ish wave: fundamental peak ≈ 2/π, RMS ≈ √2/π.
	got := HarmonicRMS(p, 1)
	want := math.Sqrt2 / math.Pi
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("fundamental RMS = %v, want ≈ %v", got, want)
	}
}

// testConverter builds a minimal switching cell behind a LISN.
func testConverter(k float64) *netlist.Circuit {
	c := &netlist.Circuit{Title: "test converter"}
	c.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	AddLISN(c, "lisn", "bat", "vin")
	// Input filter: shunt cap with ESL, series choke.
	c.AddC("Cin", "vin", "cx", 1e-6)
	c.AddL("Lcin", "cx", "0", 15e-9)
	c.AddL("Lfilt", "vin", "vdd", 10e-6)
	c.AddC("Cdd", "vdd", "cy", 1e-6)
	c.AddL("Lcdd", "cy", "0", 15e-9)
	// Switching cell: trapezoid noise source with loop parasitics.
	c.AddV("Vsw", "sw", "0", netlist.Source{Pulse: &netlist.Pulse{
		V1: 0, V2: 12, Rise: 30e-9, Fall: 30e-9, Width: 2e-6, Period: 5e-6,
	}})
	c.AddL("Lloop", "sw", "swl", 50e-9)
	c.AddR("Rloop", "swl", "vdd", 0.2)
	if k != 0 {
		c.AddK("Kc", "Lcin", "Lcdd", k)
	}
	return c
}

func TestPredictorSpectrum(t *testing.T) {
	t.Parallel()
	p := &Predictor{
		Circuit:     testConverter(0),
		SourceName:  "Vsw",
		MeasureNode: "lisn_meas",
		MaxFreq:     30e6,
	}
	s, err := p.Spectrum()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Freqs) < 100 {
		t.Fatalf("too few harmonics: %d", len(s.Freqs))
	}
	// Harmonic grid: f_k = k·200 kHz.
	if math.Abs(s.Freqs[0]-200e3) > 1 {
		t.Errorf("f1 = %v", s.Freqs[0])
	}
	// Levels are finite and in plausible EMI territory (0–120 dBµV peaks).
	_, peak := s.Max()
	if peak < 0 || peak > 140 {
		t.Errorf("peak level = %v dBµV", peak)
	}
	// The circuit is untouched.
	if p.Circuit.Find("Vsw").Src.ACMag != 0 {
		t.Error("Predictor mutated the input circuit")
	}
}

// TestBandSolverLeavesSourcesAlone: a sweep computes each harmonic's
// source phasors into the right-hand side; neither the solver's cloned
// source elements nor the input circuit are written.
func TestBandSolverLeavesSourcesAlone(t *testing.T) {
	t.Parallel()
	c := testConverter(0.05)
	input := c.String()
	bs, err := NewBandSolver(c, []string{"Vsw"}, "lisn_meas", 0, 30e6)
	if err != nil {
		t.Fatal(err)
	}
	src := bs.srcs[0].Src
	before, pulse := *src, *src.Pulse
	for i := 0; i < 2; i++ {
		if _, err := bs.SpectrumCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if *src != before || *src.Pulse != pulse {
		t.Errorf("sweep mutated the cloned source: %+v (pulse %+v), was %+v (pulse %+v)", *src, *src.Pulse, before, pulse)
	}
	if c.String() != input {
		t.Error("sweep mutated the input circuit")
	}
}

func TestCouplingRaisesEmissions(t *testing.T) {
	t.Parallel()
	// The paper's central claim in circuit form: adding the magnetic
	// coupling between the filter capacitors' ESLs raises high-frequency
	// conducted emissions.
	mk := func(k float64) *Spectrum {
		p := &Predictor{
			Circuit:     testConverter(k),
			SourceName:  "Vsw",
			MeasureNode: "lisn_meas",
			MaxFreq:     100e6,
		}
		s, err := p.Spectrum()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0 := mk(0)
	s1 := mk(0.05)
	hf0 := s0.InBand(20e6, 100e6)
	hf1 := s1.InBand(20e6, 100e6)
	_, m0 := hf0.Max()
	_, m1 := hf1.Max()
	if m1 < m0+10 {
		t.Errorf("coupling should raise HF emissions by >10 dB: %v vs %v", m1, m0)
	}
}

func TestPredictorErrors(t *testing.T) {
	t.Parallel()
	c := testConverter(0)
	for _, p := range []*Predictor{
		{Circuit: c, SourceName: "nope", MeasureNode: "lisn_meas"},
		{Circuit: c, SourceName: "Vbat", MeasureNode: "lisn_meas"}, // no pulse
	} {
		if _, err := p.Spectrum(); err == nil {
			t.Errorf("Predictor %+v should fail", p.SourceName)
		}
	}
}

func TestSpectrumHelpers(t *testing.T) {
	t.Parallel()
	s := &Spectrum{
		Freqs: []float64{200e3, 1e6, 10e6, 100e6},
		DB:    []float64{70, 60, 50, 45},
	}
	if band := s.InBand(500e3, 20e6); len(band.Freqs) != 2 {
		t.Errorf("InBand = %v", band.Freqs)
	}
	f, db := s.Max()
	if f != 200e3 || db != 70 {
		t.Errorf("Max = %v @ %v", db, f)
	}
	// 200 kHz (limit 70, level 70) no violation; 1 MHz (54, 60) violates;
	// 100 MHz (38, 45) violates; 10 MHz out of service bands.
	v := s.Violations()
	if len(v) != 2 {
		t.Fatalf("violations = %+v", v)
	}
	if v[0].Freq != 1e6 || v[1].Freq != 100e6 {
		t.Errorf("violations = %+v", v)
	}
	if m := s.WorstMargin(); math.Abs(m-(-7)) > 1e-9 {
		t.Errorf("WorstMargin = %v, want -7", m)
	}
}

func TestCompareMetrics(t *testing.T) {
	t.Parallel()
	a := &Spectrum{Freqs: []float64{1, 2, 3, 4}, DB: []float64{10, 20, 30, 40}}
	ident := Compare(a, a)
	if ident.MaxAbsDelta != 0 || ident.Correlation < 0.999 {
		t.Errorf("self comparison = %+v", ident)
	}
	b := &Spectrum{Freqs: []float64{1, 2, 3, 4}, DB: []float64{12, 22, 32, 42}}
	c := Compare(a, b)
	if math.Abs(c.MaxAbsDelta-2) > 1e-12 || math.Abs(c.MeanAbsDelta-2) > 1e-12 {
		t.Errorf("offset comparison = %+v", c)
	}
	if c.Correlation < 0.999 {
		t.Errorf("offset correlation = %v", c.Correlation)
	}
	anti := &Spectrum{Freqs: []float64{1, 2, 3, 4}, DB: []float64{40, 30, 20, 10}}
	if cc := Compare(a, anti); cc.Correlation > -0.999 {
		t.Errorf("anti correlation = %v", cc.Correlation)
	}
	// Disjoint grids.
	d := Compare(a, &Spectrum{Freqs: []float64{9}, DB: []float64{1}})
	if d.N != 0 {
		t.Errorf("disjoint N = %d", d.N)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	t.Parallel()
	s := &Spectrum{
		Freqs: []float64{200e3, 1e6, 30e6},
		DB:    []float64{70.5, 54.25, -3},
	}
	var b strings.Builder
	if err := s.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadTSV: %v\n%s", err, b.String())
	}
	if len(got.Freqs) != 3 || got.Freqs[1] != 1e6 || got.DB[1] != 54.25 {
		t.Errorf("round trip = %+v", got)
	}
	// Headerless and commented input parses too.
	got, err = ReadTSV(strings.NewReader("# comment\n1000 10\n2000 20\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Freqs) != 2 {
		t.Errorf("parsed = %+v", got)
	}
}

func TestTSVErrors(t *testing.T) {
	t.Parallel()
	bad := []string{
		"",                   // empty
		"1000\n",             // wrong arity
		"abc def\n",          // bad numbers past line 1
		"1000 10\nabc def\n", // bad numbers later
		"-5 10\n",            // non-positive frequency
		"2000 10\n1000 20\n", // descending
	}
	for _, s := range bad {
		if _, err := ReadTSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadTSV(%q) should fail", s)
		}
	}
}

func TestMeasuredIsDeterministicAndBounded(t *testing.T) {
	t.Parallel()
	ref := &Spectrum{Freqs: []float64{1, 2, 3, 4, 5}, DB: []float64{50, 55, 60, 65, 70}}
	m1 := Measured(ref, 2, 42)
	m2 := Measured(ref, 2, 42)
	for i := range m1.DB {
		if m1.DB[i] != m2.DB[i] {
			t.Fatal("Measured is not deterministic")
		}
		if math.Abs(m1.DB[i]-ref.DB[i]) > 2 {
			t.Errorf("ripple exceeded bound: %v vs %v", m1.DB[i], ref.DB[i])
		}
	}
	m3 := Measured(ref, 2, 43)
	same := true
	for i := range m1.DB {
		if m1.DB[i] != m3.DB[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
	// The measurement stays well correlated with the reference.
	if c := Compare(ref, m1); c.Correlation < 0.9 {
		t.Errorf("measured correlation = %v", c.Correlation)
	}
}

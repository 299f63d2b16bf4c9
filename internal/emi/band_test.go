package emi_test

import (
	"context"
	"testing"

	"repro/internal/buck"
	"repro/internal/core"
	"repro/internal/emi"
	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/netlist"
	"repro/internal/workload/board"
)

// coupledCircuit extracts the project's couplings over pairs and inserts
// them, the chain every coupled prediction runs.
func coupledCircuit(t *testing.T, p *core.Project, pairs [][2]string) *netlist.Circuit {
	t.Helper()
	ks, err := p.ExtractCouplings(pairs)
	if err != nil {
		t.Fatal(err)
	}
	return p.CircuitWithCouplings(ks)
}

// TestBandSweepParallelismInvariant: the harmonic sweep returns the same
// bits at any pool parallelism, for the dense and the sparse backend,
// through BandSolver and Predictor alike, and a second sweep on one
// solver repeats the first.
func TestBandSweepParallelismInvariant(t *testing.T) {
	bk := buck.Project()
	if err := buck.Unfavorable(bk); err != nil {
		t.Fatal(err)
	}
	bd := board.Project(300)
	bd.CouplingTheta = 0.3
	cases := []struct {
		name    string
		p       *core.Project
		ckt     *netlist.Circuit
		maxFreq float64
	}{
		{"buck", bk, coupledCircuit(t, bk, bk.AllPairs()), 10e6},
		{"board300", bd, coupledCircuit(t, bd, board.NeighborPairs(bd, 0.05)), 5e6},
	}
	defer engine.SetMaxParallelism(engine.SetMaxParallelism(1))
	for _, tc := range cases {
		for _, mode := range []linalg.SolverMode{linalg.ModeDense, linalg.ModeSparse} {
			band := func() *emi.Spectrum {
				bs, err := emi.NewBandSolver(tc.ckt, tc.p.Sources, tc.p.MeasureNode, 0, tc.maxFreq)
				if err != nil {
					t.Fatal(err)
				}
				bs.SetSolver(mode)
				s, err := bs.SpectrumCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				again, err := bs.SpectrumCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, tc.name+" second sweep", again, s)
				return s
			}
			predict := func() *emi.Spectrum {
				s, err := (&emi.Predictor{Circuit: tc.ckt, Sources: tc.p.Sources,
					MeasureNode: tc.p.MeasureNode, MaxFreq: tc.maxFreq, Solver: mode}).SpectrumCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			engine.SetMaxParallelism(1)
			want := band()
			sameBits(t, tc.name+" predictor serial", predict(), want)
			engine.SetMaxParallelism(4)
			for run := 0; run < 3; run++ {
				sameBits(t, tc.name+" band parallel", band(), want)
				sameBits(t, tc.name+" predictor parallel", predict(), want)
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want *emi.Spectrum) {
	t.Helper()
	if len(got.DB) != len(want.DB) || len(got.DB) == 0 {
		t.Fatalf("%s: %d harmonics, want %d", what, len(got.DB), len(want.DB))
	}
	for i := range want.DB {
		if got.Freqs[i] != want.Freqs[i] || got.DB[i] != want.DB[i] {
			t.Fatalf("%s: harmonic %d (%g Hz): %v dBµV, want %v", what, i, want.Freqs[i], got.DB[i], want.DB[i])
		}
	}
}

// TestHierCacheInvisibleInSpectrum: the hierarchical coupling memo, keyed
// on per-tree conductor digests, changes no bit of a coupled spectrum —
// uncached, cold and warm runs agree, and the warm run is served from
// the memo.
func TestHierCacheInvisibleInSpectrum(t *testing.T) {
	defer engine.SetCacheEnabled(engine.SetCacheEnabled(false))
	spectrum := func() *emi.Spectrum {
		p := board.Project(300)
		p.CouplingTheta = 0.3
		s, err := (&emi.Predictor{Circuit: coupledCircuit(t, p, board.NeighborPairs(p, 0.05)),
			Sources: p.Sources, MeasureNode: p.MeasureNode, MaxFreq: 5e6}).SpectrumCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	uncached := spectrum()
	engine.SetCacheEnabled(true)
	engine.ResetCache()
	sameBits(t, "cold cache", spectrum(), uncached)
	h0, _ := engine.CacheCounts()
	sameBits(t, "warm cache", spectrum(), uncached)
	if h1, _ := engine.CacheCounts(); h1 == h0 {
		t.Error("warm run recorded no cache hits")
	}
}

package main

// The benchmark's own input generator. Everything the program receives
// is built here from the seed, through public constructors only
// (components, layout, netlist, core.Project), so reshaping the
// program's own workload generators cannot silently change the
// benchmark's inputs.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/emi"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/rules"
)

// switchFreq is the shared switching frequency of every generated
// converter and filter board.
const switchFreq = 200e3

// pick returns one element of xs chosen by rng.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// uniform returns a value uniform in [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

// pulse returns a trapezoidal switching waveform at switchFreq with a
// seeded amplitude, duty cycle, edge time and phase.
func pulse(rng *rand.Rand, amp float64) netlist.Source {
	period := 1 / switchFreq
	edge := uniform(rng, 20e-9, 60e-9)
	return netlist.Source{Pulse: &netlist.Pulse{
		V1: 0, V2: amp,
		Delay: uniform(rng, 0, 0.5) * period,
		Rise:  edge, Fall: edge,
		Width:  uniform(rng, 0.3, 0.6)*period - edge,
		Period: period,
	}}
}

// filterBoard builds a pre-placed EMI-filter board of parallel LC
// branches. Every branch hangs off the LISN's equipment node through its
// own short trace and carries its own noise source, so the conducted
// level at the LISN is a sum over branches, each attenuated by one
// two-pole filter: the level stays far above the floating-point floor at
// any branch count, unlike a cascade of N identical stages whose output
// sinks by one stage's attenuation per stage.
//
// Branch i: trace Lt<i> from n0 to t<i>, X capacitor CX<i> at t<i>,
// bobbin choke L<i> from t<i> to b<i>, bulk capacitor CB<i> at b<i>, and
// a PULSE current source I<i> injecting at b<i>. Each capacitor is
// C + ESR + ESL in series; the ESL inductor and the choke winding are
// the PEEC-mapped inductors.
func filterBoard(rng *rand.Rand, branches int) *core.Project {
	const (
		cellW  = 0.024
		cellH  = 0.030
		margin = 0.014
	)
	cols := int(math.Ceil(math.Sqrt(float64(branches))))
	rows := (branches + cols - 1) / cols
	bw := 2*margin + float64(cols)*cellW
	bh := 2*margin + float64(rows)*cellH
	d := &layout.Design{
		Name:      fmt.Sprintf("filter-board-%d", branches),
		Boards:    1,
		Clearance: 0.5e-3,
		Areas:     []layout.Area{{Name: "board", Poly: geom.RectPolygon(geom.R(0, 0, bw, bh))}},
		Rules:     rules.NewSet(nil),
	}
	c := &netlist.Circuit{Title: d.Name}
	c.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	measure := emi.AddLISN(c, "lisn", "bat", "n0")
	p := &core.Project{
		Design:      d,
		Circuit:     c,
		Models:      map[string]components.Model{},
		InductorOf:  map[string]string{},
		MeasureNode: measure,
	}
	put := func(ref string, m components.Model, x, y float64) {
		w, l, h := m.Size()
		rot := pick(rng, []float64{0, math.Pi / 2})
		d.Comps = append(d.Comps, &layout.Component{
			Ref: ref, W: w, L: l, H: h,
			Axis:   m.MagneticAxis(0),
			Placed: true,
			Center: geom.V2(x+uniform(rng, -1.5e-3, 1.5e-3), y+uniform(rng, -1.5e-3, 1.5e-3)),
			Rot:    rot,
		})
		p.Models[ref] = m
	}
	capBranch := func(name, node string, m *components.Capacitor) string {
		a, b := node+"_"+name+"a", node+"_"+name+"b"
		esl := "L" + name
		c.AddC("C"+name, node, a, m.C)
		c.AddR("R"+name, a, b, m.ESR)
		c.AddL(esl, b, "0", m.EffectiveESL())
		return esl
	}
	for i := 0; i < branches; i++ {
		x := margin + cellW/2 + float64(i%cols)*cellW
		y := margin + cellH/3 + float64(i/cols)*cellH
		t, b := fmt.Sprintf("t%d", i), fmt.Sprintf("b%d", i)

		choke := components.NewBobbinChoke(fmt.Sprintf("DR%d", i), pick(rng, []int{2, 3, 4}), 3.5e-3)
		choke.RingSegs = 8
		cx := components.NewMLCC(fmt.Sprintf("MLCC%d", i), pick(rng, []float64{0.47e-6, 1e-6, 2.2e-6}))
		cb := components.NewSMDTantalum(fmt.Sprintf("TAN%d", i), pick(rng, []float64{4.7e-6, 10e-6, 22e-6}))

		lch, cxRef, cbRef := fmt.Sprintf("L%d", i), fmt.Sprintf("CX%d", i), fmt.Sprintf("CB%d", i)
		put(lch, choke, x, y)
		put(cxRef, cx, x-cellW/3, y+cellH/2)
		put(cbRef, cb, x+cellW/4, y+cellH/2)

		c.AddL(fmt.Sprintf("Lt%d", i), "n0", t, uniform(rng, 10e-9, 40e-9))
		p.InductorOf[cxRef] = capBranch(fmt.Sprintf("x%d", i), t, cx)
		c.AddL("Lch"+fmt.Sprint(i), t, b, choke.Inductance())
		p.InductorOf[lch] = "Lch" + fmt.Sprint(i)
		p.InductorOf[cbRef] = capBranch(fmt.Sprintf("b%d", i), b, cb)
		src := fmt.Sprintf("I%d", i)
		c.AddI(src, b, "0", pulse(rng, uniform(rng, 0.5, 2)))
		c.AddR(fmt.Sprintf("Rl%d", i), b, "0", uniform(rng, 2, 8))
		p.Sources = append(p.Sources, src)
	}
	return p
}

// converterNetlist renders a small buck converter with input filter and
// LISN as netlist text — the body of a predict job. Element values are
// drawn from the seed; the topology is fixed.
func converterNetlist(rng *rand.Rand) string {
	c := &netlist.Circuit{Title: "perfbench buck"}
	c.AddV("Vbat", "bat", "0", netlist.Source{DC: 12})
	emi.AddLISN(c, "lisn", "bat", "vin")
	capTo := func(name, node string, cf, esr, esl float64) {
		a, b := node+"_"+name+"a", node+"_"+name+"b"
		c.AddC("C"+name, node, a, cf)
		c.AddR("R"+name, a, b, esr)
		c.AddL("L"+name, b, "0", esl)
	}
	capTo("in1", "vin", pick(rng, []float64{1e-6, 2.2e-6, 4.7e-6}), 0.015, uniform(rng, 10e-9, 40e-9))
	c.AddL("Llf1", "vin", "vdd", pick(rng, []float64{4.7e-6, 10e-6, 22e-6}))
	capTo("in2", "vdd", pick(rng, []float64{2.2e-6, 4.7e-6}), 0.015, uniform(rng, 10e-9, 40e-9))
	capTo("b1", "vdd", pick(rng, []float64{47e-6, 100e-6}), 0.08, uniform(rng, 2e-9, 6e-9))
	c.AddI("IQ1", "vdd", "sw", pulse(rng, uniform(rng, 1, 4)))
	c.AddV("VD1", "sw", "0", pulse(rng, 12))
	c.AddL("Lloop", "sw", "swl", uniform(rng, 10e-9, 50e-9))
	c.AddR("Rloop", "swl", "0", 0.1)
	c.AddL("Lbuck", "sw", "vout", pick(rng, []float64{10e-6, 22e-6, 33e-6}))
	capTo("o1", "vout", pick(rng, []float64{22e-6, 47e-6}), 0.08, uniform(rng, 2e-9, 6e-9))
	c.AddR("Rload", "vout", "0", uniform(rng, 1, 5))
	return c.String()
}

// designComp is one part of a generated session or placement design.
type designComp struct {
	ref     string
	w, l, h float64
	group   string
	magnet  bool
}

// smallDesign builds a one-board design of n parts with nets and EMD
// rules. With placed set, every part sits on a seeded grid position (a
// session's starting layout); otherwise the parts are left for the
// placer.
func smallDesign(rng *rand.Rand, name string, n int, placed bool) *layout.Design {
	const bw, bh = 0.100, 0.080
	d := &layout.Design{
		Name:      name,
		Boards:    1,
		Clearance: 1e-3,
		Areas:     []layout.Area{{Name: "board", Poly: geom.RectPolygon(geom.R(0, 0, bw, bh))}},
		Rules:     rules.NewSet(nil),
	}
	// Functional groups are contiguous blocks of parts, each wired by
	// its own net, with one net joining neighbouring groups — the shape
	// of a converter's input filter, power stage and output filter.
	groups := []string{"input", "power", "output"}
	// Part 0 is a fixed 4 mm controller IC. The placer's raster step is
	// half the smallest part dimension, so fixing the smallest part keeps
	// every design's placement cost in the same range; the other parts
	// are 5–10 mm.
	comps := make([]designComp, n)
	for i := range comps {
		comps[i] = designComp{
			ref:    fmt.Sprintf("P%d", i),
			w:      math.Round(uniform(rng, 5, 10)) * 1e-3,
			l:      math.Round(uniform(rng, 5, 10)) * 1e-3,
			h:      math.Round(uniform(rng, 2, 12)) * 1e-3,
			group:  groups[i*len(groups)/n],
			magnet: rng.Intn(2) == 0,
		}
	}
	comps[0].w, comps[0].l, comps[0].h, comps[0].magnet = 4e-3, 4e-3, 2e-3, false
	for i, dc := range comps {
		c := &layout.Component{Ref: dc.ref, W: dc.w, L: dc.l, H: dc.h, Group: dc.group}
		if dc.magnet {
			c.Axis = geom.V3(0, 1, 0)
		}
		if placed {
			c.Placed = true
			c.Center = geom.V2(0.012+float64(i%5)*0.019, 0.012+float64(i/5)*0.020)
		}
		d.Comps = append(d.Comps, c)
	}
	members := map[string][]string{}
	for _, dc := range comps {
		members[dc.group] = append(members[dc.group], dc.ref)
	}
	for gi, g := range groups {
		if len(members[g]) > 1 {
			d.Nets = append(d.Nets, layout.Net{Name: g, Refs: members[g]})
		}
		if gi > 0 && len(members[g]) > 0 && len(members[groups[gi-1]]) > 0 {
			prev := members[groups[gi-1]]
			d.Nets = append(d.Nets, layout.Net{Name: groups[gi-1] + "-" + g,
				Refs: []string{prev[len(prev)-1], members[g][0]}})
		}
	}
	for r := 0; r < n/2; r++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			d.Rules.Add(rules.Rule{RefA: comps[a].ref, RefB: comps[b].ref,
				PEMD: math.Round(uniform(rng, 3, 8)) * 1e-3})
		}
	}
	return d
}

// designText renders a design in the layout file format.
func designText(d *layout.Design) (string, error) {
	var buf bytes.Buffer
	if err := layout.Write(&buf, d); err != nil {
		return "", err
	}
	return buf.String(), nil
}

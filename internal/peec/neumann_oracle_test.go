package peec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/quadrature"
)

// neumannOracle is the closure form the specialised kernel replaced:
// quadrature.Integrate2D over a closure that rebuilds both points for
// every node pair, under the same adaptive subdivision.
func neumannOracle(a, b Segment, order int, gmd float64, depth int) float64 {
	la, lb := a.Length(), b.Length()
	d := segmentMinDistance(a, b)
	if depth < maxSubdivide && d < 0.5*math.Max(la, lb) {
		if la >= lb {
			m := a.Center()
			return neumannOracle(Segment{a.A, m, a.Radius}, b, order, gmd, depth+1) +
				neumannOracle(Segment{m, a.B, a.Radius}, b, order, gmd, depth+1)
		}
		m := b.Center()
		return neumannOracle(a, Segment{b.A, m, b.Radius}, order, gmd, depth+1) +
			neumannOracle(a, Segment{m, b.B, b.Radius}, order, gmd, depth+1)
	}
	da := a.B.Sub(a.A)
	db := b.B.Sub(b.A)
	g2 := gmd * gmd
	f := func(s, t float64) float64 {
		p := a.A.Add(da.Scale(s))
		q := b.A.Add(db.Scale(t))
		diff := p.Sub(q)
		return 1 / math.Sqrt(diff.Dot(diff)+g2)
	}
	return quadrature.Integrate2D(f, 0, 1, 0, 1, order) * la * lb
}

// TestNeumannMatchesOracle: the hoisted kernel reproduces the closure
// form bit for bit on random segment pairs — far, near, touching at an
// endpoint and coincident, the last three subdividing — for every rule
// order from 1 to 16 and one past the kernel's stack buffer.
func TestNeumannMatchesOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	pt := func(scale float64) geom.Vec3 {
		return geom.V3(scale*rng.Float64(), scale*rng.Float64(), scale*rng.Float64())
	}
	subdivided := 0
	for trial := 0; trial < 400; trial++ {
		a := Segment{pt(0.05), pt(0.05), 1e-4 * (1 + rng.Float64())}
		var b Segment
		switch trial % 4 {
		case 0: // far or unrelated
			b = Segment{pt(0.05), pt(0.05), 2e-4}
		case 1: // near: a shifted by a fraction of a millimetre, tilted
			off := pt(1e-3)
			b = Segment{a.A.Add(off), a.B.Add(off).Add(pt(2e-3)), 3e-4}
		case 2: // touching: b starts where a ends
			b = Segment{a.B, a.B.Add(pt(0.02)), a.Radius}
		case 3: // coincident filaments of different radii
			b = Segment{a.A, a.B, 5e-4}
		}
		gmd := filamentGMD(a.Radius, b.Radius)
		if segmentMinDistance(a, b) < 0.5*math.Max(a.Length(), b.Length()) {
			subdivided++
		}
		for _, order := range []int{1 + trial%16, 17} {
			got := neumann(a, b, quadrature.Legendre(order), gmd, 0)
			want := neumannOracle(a, b, order, gmd, 0)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d order %d: %v, oracle %v (%v, %v)", trial, order, got, want, a, b)
			}
		}
	}
	if subdivided < 200 {
		t.Fatalf("only %d of 400 pairs subdivide", subdivided)
	}
}

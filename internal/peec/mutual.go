package peec

import (
	"math"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/quadrature"
)

// DefaultOrder is the Gauss–Legendre order used for Neumann integrals when
// the caller does not request a specific one.
const DefaultOrder = 8

// maxSubdivide bounds the adaptive subdivision depth of the Neumann
// integration for near-singular segment pairs.
const maxSubdivide = 6

// MutualFilaments computes the mutual partial inductance between two
// straight filament segments by the Neumann double integral
//
//	M = µ0/(4π) · (â·b̂) · ∫∫ ds dt / dist(s,t)
//
// evaluated with tensor-product Gauss–Legendre quadrature of the given
// order. Close pairs are subdivided adaptively; the distance kernel is
// regularised with the geometric-mean wire radius so that touching or
// overlapping filaments stay finite (the finite-radius filament model).
//
// The sign of the result follows the segment directions: anti-parallel
// segments yield negative M.
func MutualFilaments(a, b Segment, order int) float64 {
	engine.CountNeumann()
	if order <= 0 {
		order = DefaultOrder
	}
	la, lb := a.Length(), b.Length()
	if la == 0 || lb == 0 {
		return 0
	}
	cosAB := a.Dir().Dot(b.Dir())
	if cosAB == 0 {
		return 0 // perpendicular filaments never couple
	}
	gmd := filamentGMD(a.Radius, b.Radius)
	integral := neumann(a, b, quadrature.Legendre(order), gmd, 0)
	return Mu0 / (4 * math.Pi) * cosAB * integral
}

// filamentGMD returns the regularisation distance for the Neumann kernel:
// the geometric mean distance of a round conductor, e^{-1/4}·r, combined for
// the two wire radii. Zero radii regularise with a tiny epsilon to keep the
// kernel integrable for exactly coincident filaments.
func filamentGMD(ra, rb float64) float64 {
	g := math.Exp(-0.25) * math.Sqrt(math.Max(ra, 1e-12)*math.Max(rb, 1e-12))
	return g
}

// neumann evaluates ∫∫ ds dt / sqrt(dist² + gmd²) over both segments,
// subdividing the longer segment while the pair is close relative to its
// size (where the kernel varies too fast for the fixed-order rule).
func neumann(a, b Segment, rule quadrature.Rule, gmd float64, depth int) float64 {
	la, lb := a.Length(), b.Length()
	d := segmentMinDistance(a, b)
	if depth < maxSubdivide && d < 0.5*math.Max(la, lb) {
		// Split the longer segment at its midpoint and recurse.
		if la >= lb {
			m := a.Center()
			return neumann(Segment{a.A, m, a.Radius}, b, rule, gmd, depth+1) +
				neumann(Segment{m, a.B, a.Radius}, b, rule, gmd, depth+1)
		}
		m := b.Center()
		return neumann(a, Segment{b.A, m, b.Radius}, rule, gmd, depth+1) +
			neumann(a, Segment{m, b.B, b.Radius}, rule, gmd, depth+1)
	}
	return neumannRule(a, b, rule, gmd*gmd) * la * lb
}

// neumannRule is quadrature.Integrate2D of 1/sqrt(|p(s)−q(t)|² + g2) over
// the unit square, p(s) = a.A + s·(a.B−a.A) and q(t) likewise on b, with
// Integrate2D's arithmetic in Integrate2D's order, so the bits match the
// closure form. Only the invariants move out of the inner loop: the
// rule's b-side points are built once per call and each a-side point
// once per outer node.
func neumannRule(a, b Segment, rule quadrature.Rule, g2 float64) float64 {
	da := a.B.Sub(a.A)
	db := b.B.Sub(b.A)
	var qbuf [16]geom.Vec3 // rules up to order 16 keep q on the stack
	q := qbuf[:0]
	for _, y := range rule.Nodes {
		q = append(q, b.A.Add(db.Scale(0.5+0.5*y)))
	}
	w := rule.Weights[:len(q)]
	sum := 0.0
	for i, x := range rule.Nodes {
		p := a.A.Add(da.Scale(0.5 + 0.5*x))
		rowSum := 0.0
		for j, qj := range q {
			diff := p.Sub(qj)
			rowSum += w[j] * (1 / math.Sqrt(diff.Dot(diff)+g2))
		}
		sum += w[i] * rowSum
	}
	return sum * 0.5 * 0.5
}

// segmentMinDistance returns the minimum distance between two segments,
// computed by the standard closest-point-of-approach clamp.
func segmentMinDistance(a, b Segment) float64 {
	u := a.B.Sub(a.A)
	v := b.B.Sub(b.A)
	w := a.A.Sub(b.A)
	uu := u.Dot(u)
	vv := v.Dot(v)
	uv := u.Dot(v)
	uw := u.Dot(w)
	vw := v.Dot(w)
	den := uu*vv - uv*uv

	var s, t float64
	if den > 1e-18*(uu*vv+1e-30) {
		s = clamp01((uv*vw - vv*uw) / den)
	} else {
		s = 0 // nearly parallel: pick an endpoint
	}
	if vv > 0 {
		t = clamp01((uv*s + vw) / vv)
	}
	if uu > 0 {
		s = clamp01((uv*t - uw) / uu)
	}
	p := a.A.Add(u.Scale(s))
	q := b.A.Add(v.Scale(t))
	return p.Dist(q)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// MutualParallelFilaments returns the exact (Grover) mutual inductance of
// two equal-length parallel filaments of length l at center distance d:
//
//	M = µ0·l/(2π) · [ ln(l/d + √(1+l²/d²)) − √(1+d²/l²) + d/l ]
//
// Used as a fast path and as the validation anchor for the Neumann
// quadrature.
func MutualParallelFilaments(length, d float64) float64 {
	if length <= 0 || d <= 0 {
		return 0
	}
	r := length / d
	return Mu0 * length / (2 * math.Pi) *
		(math.Log(r+math.Sqrt(1+r*r)) - math.Sqrt(1+1/(r*r)) + 1/r)
}

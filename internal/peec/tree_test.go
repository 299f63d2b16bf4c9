package peec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
)

// randomPolyline builds a jagged open conductor of n segments inside a
// unit-ish cloud centered at c.
func randomPolyline(rng *rand.Rand, c geom.Vec3, n int, spread float64) *Conductor {
	pts := make([]geom.Vec3, n+1)
	for i := range pts {
		pts[i] = c.Add(geom.V3(
			spread*(rng.Float64()-0.5),
			spread*(rng.Float64()-0.5),
			spread*(rng.Float64()-0.5),
		))
	}
	return NewPolyline(pts, 0.0005)
}

func TestMutualHierExactAtThetaZero(t *testing.T) {
	a := Ring(geom.V3(0, 0, 0), geom.V3(0, 0, 1), 0.01, 16, 0.0005)
	b := Ring(geom.V3(0.05, 0.02, 0), geom.V3(0, 0, 1), 0.008, 16, 0.0005)
	ta, tb := NewSegTree(a), NewSegTree(b)
	exact := Mutual(a, b, DefaultOrder)
	if got := MutualHier(ta, tb, DefaultOrder, 0); got != exact {
		t.Fatalf("theta=0 not bit-exact: %g vs %g", got, exact)
	}
	if got := MutualHier(ta, tb, DefaultOrder, -1); got != exact {
		t.Fatalf("theta<0 not bit-exact: %g vs %g", got, exact)
	}
}

// TestMutualHierFarFieldAccuracy checks the controlled-error contract:
// at moderate theta the hierarchical result stays within a few percent
// of the exact double sum, tightening as theta shrinks.
func TestMutualHierFarFieldAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type pair struct {
		a, b *Conductor
	}
	var pairs []pair
	// Coaxial and offset rings at a range of separations, plus random
	// polyline clouds — the component shapes core extraction produces.
	for _, d := range []float64{0.03, 0.06, 0.15, 0.4} {
		pairs = append(pairs,
			pair{
				Ring(geom.V3(0, 0, 0), geom.V3(0, 0, 1), 0.01, 16, 0.0005),
				Ring(geom.V3(d, 0, 0), geom.V3(0, 0, 1), 0.01, 16, 0.0005),
			},
			pair{
				Ring(geom.V3(0, 0, 0), geom.V3(0, 1, 0), 0.008, 12, 0.0005),
				Ring(geom.V3(d, d/2, 0.01), geom.V3(0, 0, 1), 0.012, 20, 0.0005),
			},
			pair{
				randomPolyline(rng, geom.V3(0, 0, 0), 30, 0.02),
				randomPolyline(rng, geom.V3(d, 0, 0.005), 30, 0.02),
			})
	}
	for _, theta := range []float64{0.5, 0.25} {
		for pi, p := range pairs {
			exact := Mutual(p.a, p.b, DefaultOrder)
			got := MutualHier(NewSegTree(p.a), NewSegTree(p.b), DefaultOrder, theta)
			// Relative to the exact magnitude, floored: distant pairs have
			// tiny M where absolute agreement is what matters. Loop pairs
			// are dipole-dominated, where the expansion's relative error is
			// O(θ) at the acceptance margin — hence the θ-scaled bounds.
			tol := 0.12*math.Abs(exact) + 1e-13
			if theta <= 0.25 {
				tol = 0.03*math.Abs(exact) + 1e-13
			}
			if err := math.Abs(got - exact); err > tol {
				t.Errorf("pair %d theta=%g: exact %.6g hier %.6g (err %.2g > tol %.2g)",
					pi, theta, exact, got, err, tol)
			}
		}
	}
}

// TestMutualHierDeterministic: the same inputs give bit-identical
// results across calls and across cache resets (the tree build and the
// traversal order are deterministic, and the memo layer must be
// invisible).
func TestMutualHierDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomPolyline(rng, geom.V3(0, 0, 0), 50, 0.03)
	b := randomPolyline(rng, geom.V3(0.08, 0.01, 0), 50, 0.03)
	const theta = 0.4
	first := MutualHier(NewSegTree(a), NewSegTree(b), DefaultOrder, theta)
	again := MutualHier(NewSegTree(a), NewSegTree(b), DefaultOrder, theta)
	if first != again {
		t.Fatalf("cached call differs: %g vs %g", first, again)
	}
	engine.ResetCache()
	fresh := MutualHier(NewSegTree(a), NewSegTree(b), DefaultOrder, theta)
	if first != fresh {
		t.Fatalf("result not bit-stable across cache reset: %g vs %g", first, fresh)
	}
}

// TestMutualHierWeights: µ-cored and shielded conductors scale the
// hierarchical result exactly like the exact path.
func TestMutualHierWeights(t *testing.T) {
	a := Ring(geom.V3(0, 0, 0), geom.V3(0, 0, 1), 0.01, 16, 0.0005)
	b := Ring(geom.V3(0.1, 0, 0), geom.V3(0, 0, 1), 0.01, 16, 0.0005)
	a.MuEff, b.Shield = 50, 0.2
	exact := Mutual(a, b, DefaultOrder)
	got := MutualHier(NewSegTree(a), NewSegTree(b), DefaultOrder, 0.3)
	if exact == 0 || math.Abs(got-exact) > 0.03*math.Abs(exact) {
		t.Fatalf("weighted mutual: exact %g hier %g", exact, got)
	}
}

func TestMutualHierDegenerate(t *testing.T) {
	empty := NewSegTree(&Conductor{})
	ring := NewSegTree(Ring(geom.V3(0, 0, 0), geom.V3(0, 0, 1), 0.01, 8, 0.0005))
	if got := MutualHier(empty, ring, DefaultOrder, 0.5); got != 0 {
		t.Fatalf("empty tree mutual = %g, want 0", got)
	}
	if got := MutualHier(ring, empty, DefaultOrder, 0.5); got != 0 {
		t.Fatalf("empty tree mutual = %g, want 0", got)
	}
	// A tiny conductor below the leaf size is one node; the walk reduces
	// to the plain Neumann sum for a nearby pair.
	a := NewPolyline([]geom.Vec3{geom.V3(0, 0, 0), geom.V3(0.01, 0, 0)}, 0.0005)
	b := NewPolyline([]geom.Vec3{geom.V3(0, 0.002, 0), geom.V3(0.01, 0.002, 0)}, 0.0005)
	exact := Mutual(a, b, DefaultOrder)
	got := MutualHier(NewSegTree(a), NewSegTree(b), DefaultOrder, 0.5)
	if math.Abs(got-exact) > 1e-3*math.Abs(exact) {
		t.Fatalf("near leaf pair: exact %g hier %g", exact, got)
	}
}

// TestSegTreeCoversSegments: every node's radius must cover all endpoint
// of its range — the invariant the MAC's error bound rests on.
func TestSegTreeCoversSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := NewSegTree(randomPolyline(rng, geom.V3(0, 0, 0), 200, 0.05))
	for ni, n := range tr.nodes {
		for i := n.lo; i < n.hi; i++ {
			s := tr.segs[i]
			if d := s.A.Sub(n.center).Norm(); d > n.radius*(1+1e-12) {
				t.Fatalf("node %d: endpoint outside radius (%g > %g)", ni, d, n.radius)
			}
			if d := s.B.Sub(n.center).Norm(); d > n.radius*(1+1e-12) {
				t.Fatalf("node %d: endpoint outside radius (%g > %g)", ni, d, n.radius)
			}
		}
	}
}

// TestMutualHierKeyCoversEveryField: the pair key built from per-tree
// digests still changes with one ULP of any field-relevant input, with
// the order, theta and argument order, and not with rebuilding a tree
// over the same geometry.
func TestMutualHierKeyCoversEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomPolyline(rng, geom.V3(0, 0, 0), 6, 0.01)
	b := randomPolyline(rng, geom.V3(0.03, 0, 0), 5, 0.01)
	ta, tb := NewSegTree(a), NewSegTree(b)
	base := mutualHierKey(ta, tb, DefaultOrder, 0.3)
	if got := mutualHierKey(NewSegTree(a), NewSegTree(b), DefaultOrder, 0.3); got != base {
		t.Fatal("rebuilt trees over the same geometry changed the key")
	}
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	differs := map[string]engine.Key{
		"order":   mutualHierKey(ta, tb, DefaultOrder+1, 0.3),
		"theta":   mutualHierKey(ta, tb, DefaultOrder, up(0.3)),
		"swapped": mutualHierKey(tb, ta, DefaultOrder, 0.3),
	}
	perturb := func(name string, edit func(c *Conductor)) {
		c := *b
		c.Segments = append([]Segment(nil), b.Segments...)
		edit(&c)
		differs[name] = mutualHierKey(ta, NewSegTree(&c), DefaultOrder, 0.3)
	}
	perturb("mu", func(c *Conductor) { c.MuEff = up(c.MuEff) })
	perturb("shield", func(c *Conductor) { c.Shield = 0.5 })
	perturb("segments", func(c *Conductor) { c.Segments = c.Segments[:len(c.Segments)-1] })
	for i := range b.Segments {
		for f, ptr := range []func(s *Segment) *float64{
			func(s *Segment) *float64 { return &s.A.X }, func(s *Segment) *float64 { return &s.A.Y },
			func(s *Segment) *float64 { return &s.A.Z }, func(s *Segment) *float64 { return &s.B.X },
			func(s *Segment) *float64 { return &s.B.Y }, func(s *Segment) *float64 { return &s.B.Z },
			func(s *Segment) *float64 { return &s.Radius },
		} {
			perturb(fmt.Sprintf("segment %d field %d", i, f), func(c *Conductor) {
				p := ptr(&c.Segments[i])
				*p = up(*p)
			})
		}
	}
	for name, k := range differs {
		if k == base {
			t.Errorf("%s: key unchanged", name)
		}
	}
}

package peec

import (
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/geom"
)

// Hierarchical mutual-inductance evaluation. The exact Mutual is a dense
// double sum over segment pairs — O(na·nb) Neumann integrals per
// conductor pair, which makes whole-board coupling extraction O(n²) in
// total segments. The Neumann kernel (dla·dlb)/|ra−rb| varies slowly
// once two segment clusters are far apart, so the double sum over a
// well-separated cluster pair collapses to a handful of moment
// contractions: expanding 1/|r+u| (u = sb−sa about the cluster centroids,
// d = |r|) through second order,
//
//	1/|r+u| ≈ 1/d − (r̂·u)/d² + (3(r̂·u)² − |u|²)/(2d³),
//
// every term factorises into per-cluster moments of the current
// elements: P = Σdl, Q_ij = Σ s_i dl_j, T_ijk = Σ s_i s_j dl_k and
// S2 = Σ|s|²dl. The expansion matters because closed loops — rings,
// capacitor loops, the dominant shapes here — have P = 0 identically:
// their leading far-field interaction is the 1/d³ term, which for loops
// reduces exactly to the magnetic dipole–dipole formula
// µ0/4π·[3(ma·r̂)(mb·r̂) − ma·mb]/d³ (Q is then the cross-product matrix
// of the dipole moment m = ½Σs×dl).
//
// SegTree stores a conductor's segments in a spatial bisection tree with
// these moments per node; MutualHier walks two trees simultaneously,
// taking the moment product wherever the multipole acceptance criterion
// (ra+rb) < θ·d holds and recursing — down to exact leaf×leaf Neumann
// sums — where it does not. θ ∈ (0, 1) is the accuracy knob: smaller is
// stricter (more exact pairs), and θ ≤ 0 bypasses the tree entirely for
// bit-exact parity with Mutual.

// treeLeafSize is the largest segment count kept in one leaf; below this
// the exact Neumann sum is cheaper than further subdivision.
const treeLeafSize = 8

// treeNode is one cluster: a contiguous range of the tree's reordered
// segment slice, its length-weighted centroid, a radius covering every
// endpoint, and the multipole moments of its current elements about the
// centroid.
type treeNode struct {
	center geom.Vec3
	radius float64
	lo, hi int32
	left   int32 // -1 = leaf
	right  int32

	p  geom.Vec3       // Σ dl
	q  [3][3]float64   // Σ s_i dl_j
	t2 [3][3]geom.Vec3 // Σ s_i s_j dl (vector per (i,j)); symmetric in i,j
	s2 geom.Vec3       // Σ |s|² dl
}

// SegTree is the spatial bisection tree over one conductor's segments.
// Building is O(n log n) and deterministic (stable median splits on the
// widest axis); the tree holds its own reordered copy of the segments,
// leaving the conductor untouched.
type SegTree struct {
	c      *Conductor
	segs   []Segment
	nodes  []treeNode
	digest engine.Key // c's cache-key digest, taken when the tree was built
}

// NewSegTree builds the segment tree of c. An empty conductor yields an
// empty tree (MutualHier returns 0 for it). The tree snapshots c's
// segments and cache-key digest: rebuild it after changing c.
func NewSegTree(c *Conductor) *SegTree {
	t := &SegTree{c: c, segs: append([]Segment(nil), c.Segments...), digest: c.digest()}
	if len(t.segs) > 0 {
		t.build(0, len(t.segs))
	}
	return t
}

// Conductor returns the conductor the tree was built over.
func (t *SegTree) Conductor() *Conductor { return t.c }

// build creates the node covering segs[lo:hi] (splitting recursively)
// and returns its index. The root is node 0.
func (t *SegTree) build(lo, hi int) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode{}) // reserve; children append after
	var n treeNode
	n.lo, n.hi, n.left, n.right = int32(lo), int32(hi), -1, -1
	wsum := 0.0
	for i := lo; i < hi; i++ {
		s := t.segs[i]
		l := s.Length()
		n.center = n.center.Add(s.Center().Scale(l))
		wsum += l
	}
	if wsum > 0 {
		n.center = n.center.Scale(1 / wsum)
	} else {
		n.center = t.segs[lo].Center()
	}
	for i := lo; i < hi; i++ {
		s := t.segs[i]
		if d := s.A.Sub(n.center).Norm(); d > n.radius {
			n.radius = d
		}
		if d := s.B.Sub(n.center).Norm(); d > n.radius {
			n.radius = d
		}
		dl := s.B.Sub(s.A)
		sv := s.Center().Sub(n.center)
		n.p = n.p.Add(dl)
		sc := [3]float64{sv.X, sv.Y, sv.Z}
		dc := [3]float64{dl.X, dl.Y, dl.Z}
		for i3 := 0; i3 < 3; i3++ {
			for j3 := 0; j3 < 3; j3++ {
				n.q[i3][j3] += sc[i3] * dc[j3]
				n.t2[i3][j3] = n.t2[i3][j3].Add(dl.Scale(sc[i3] * sc[j3]))
			}
		}
		n.s2 = n.s2.Add(dl.Scale(sv.Dot(sv)))
	}
	if hi-lo > treeLeafSize {
		// Median split on the widest axis of the segment centers. The
		// stable sort keeps equal keys in input order, so the tree — and
		// every result computed from it — is deterministic.
		var minC, maxC geom.Vec3
		for i := lo; i < hi; i++ {
			c := t.segs[i].Center()
			if i == lo {
				minC, maxC = c, c
				continue
			}
			minC = geom.V3(math.Min(minC.X, c.X), math.Min(minC.Y, c.Y), math.Min(minC.Z, c.Z))
			maxC = geom.V3(math.Max(maxC.X, c.X), math.Max(maxC.Y, c.Y), math.Max(maxC.Z, c.Z))
		}
		ext := maxC.Sub(minC)
		axis := func(v geom.Vec3) float64 { return v.X }
		if ext.Y >= ext.X && ext.Y >= ext.Z {
			axis = func(v geom.Vec3) float64 { return v.Y }
		} else if ext.Z >= ext.X && ext.Z >= ext.Y {
			axis = func(v geom.Vec3) float64 { return v.Z }
		}
		sub := t.segs[lo:hi]
		sort.SliceStable(sub, func(i, j int) bool {
			return axis(sub[i].Center()) < axis(sub[j].Center())
		})
		mid := (lo + hi) / 2
		n.left = t.build(lo, mid)
		n.right = t.build(mid, hi)
	}
	t.nodes[idx] = n
	return idx
}

// qTvec returns Qᵀ·v, i.e. out_j = Σ_i Q_ij v_i.
func qTvec(q *[3][3]float64, v geom.Vec3) geom.Vec3 {
	return geom.V3(
		q[0][0]*v.X+q[1][0]*v.Y+q[2][0]*v.Z,
		q[0][1]*v.X+q[1][1]*v.Y+q[2][1]*v.Z,
		q[0][2]*v.X+q[1][2]*v.Y+q[2][2]*v.Z,
	)
}

// qFrob returns the Frobenius inner product Σ_ij Qa_ij·Qb_ij.
func qFrob(a, b *[3][3]float64) float64 {
	sum := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			sum += a[i][j] * b[i][j]
		}
	}
	return sum
}

// t2Contract returns Σ_ij r̂_i r̂_j T_ij — the vector Σ (r̂·s)² dl.
func t2Contract(t2 *[3][3]geom.Vec3, rh geom.Vec3) geom.Vec3 {
	rc := [3]float64{rh.X, rh.Y, rh.Z}
	var out geom.Vec3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out = out.Add(t2[i][j].Scale(rc[i] * rc[j]))
		}
	}
	return out
}

// farMutual evaluates the second-order moment expansion of the Neumann
// double sum for a well-separated node pair (the µ0/4π factor and the
// conductor weights are applied by the callers).
func farMutual(a, b *treeNode) float64 {
	r := b.center.Sub(a.center)
	d := r.Norm()
	rh := r.Scale(1 / d)
	qaTr := qTvec(&a.q, rh)
	qbTr := qTvec(&b.q, rh)
	sum := a.p.Dot(b.p) / d
	sum -= (a.p.Dot(qbTr) - b.p.Dot(qaTr)) / (d * d)
	sum += (3*a.p.Dot(t2Contract(&b.t2, rh)) +
		3*b.p.Dot(t2Contract(&a.t2, rh)) -
		6*qaTr.Dot(qbTr) +
		2*qFrob(&a.q, &b.q) -
		a.p.Dot(b.s2) - b.p.Dot(a.s2)) / (2 * d * d * d)
	return sum
}

// mutualRec is the dual-tree walk: moment expansion under the MAC, exact
// Neumann sums at leaf pairs, and recursion into the larger cluster
// otherwise. Returns the unweighted segment-pair sum (the caller applies
// the µ/shield scalar and µ0/4π for far terms is folded in here to stay
// additive with the exact leaf sums).
func (t *SegTree) mutualRec(o *SegTree, ia, ib int32, order int, theta float64) float64 {
	a, b := &t.nodes[ia], &o.nodes[ib]
	d := a.center.Dist(b.center)
	if d > 0 && a.radius+b.radius < theta*d {
		return Mu0 / (4 * math.Pi) * farMutual(a, b)
	}
	aLeaf, bLeaf := a.left < 0, b.left < 0
	if aLeaf && bLeaf {
		sum := 0.0
		for i := a.lo; i < a.hi; i++ {
			for j := b.lo; j < b.hi; j++ {
				sum += MutualFilaments(t.segs[i], o.segs[j], order)
			}
		}
		return sum
	}
	if bLeaf || (!aLeaf && a.radius >= b.radius) {
		return t.mutualRec(o, a.left, ib, order, theta) +
			t.mutualRec(o, a.right, ib, order, theta)
	}
	return t.mutualRec(o, ia, b.left, order, theta) +
		t.mutualRec(o, ia, b.right, order, theta)
}

// MutualHier returns the mutual inductance between the two trees'
// conductors, hierarchically approximated with accuracy parameter
// theta ∈ (0, 1) (see the package comment above; smaller is more
// accurate). theta ≤ 0 delegates to the exact Mutual, bit-for-bit.
// Results are memoized in the engine's coupling cache under both
// geometries, order and theta, so a fixed theta yields bit-stable
// results across runs and callers.
func MutualHier(a, b *SegTree, order int, theta float64) float64 {
	if theta <= 0 {
		return Mutual(a.c, b.c, order)
	}
	if len(a.segs) == 0 || len(b.segs) == 0 {
		return 0
	}
	return engine.Memo(mutualHierKey(a, b, order, theta), func() float64 {
		sum := a.mutualRec(b, 0, 0, order, theta)
		return math.Sqrt(a.c.muEff()*b.c.muEff()) * a.c.shield() * b.c.shield() * sum
	})
}

// CouplingFactorHier is CouplingFactor with the mutual term approximated
// hierarchically at accuracy theta (theta ≤ 0 delegates to the exact
// Mutual, matching CouplingFactor bit-for-bit). The self-inductance
// denominators are always exact: they are O(n²) once per conductor, not
// per pair, so approximating them buys nothing.
func CouplingFactorHier(a, b *SegTree, order int, theta float64) float64 {
	la := a.c.SelfInductanceOrder(order)
	lb := b.c.SelfInductanceOrder(order)
	if la <= 0 || lb <= 0 {
		return 0
	}
	k := MutualHier(a, b, order, theta) / math.Sqrt(la*lb)
	if k > 1 {
		k = 1
	} else if k < -1 {
		k = -1
	}
	return k
}

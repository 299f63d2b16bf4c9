package peec

import "repro/internal/engine"

// Memoization of the expensive conductor-level integrals through the
// engine's coupling cache.
//
// The cache key is a 128-bit hash of everything the result depends on:
// the kind of computation, the quadrature order, and for each conductor
// its effective permeability, shield factor and the full segment set
// (endpoint coordinates and wire radius, bit-for-bit). Two conductors
// with identical geometry therefore share cache entries no matter which
// subsystem (core extraction, rule derivation, routing, sensitivity)
// built them — and any bit of geometric difference, including a
// translation by one ULP, misses. Keys never canonicalise symmetry
// (Mutual(a,b) vs Mutual(b,a)): the summation order differs, so the
// floating-point results may too, and the cache must be invisible in
// the output. MutualHier's keys feed each conductor's 128-bit digest of
// that same state, computed once per SegTree, instead of its segments.

// Cache key tags, one per memoized computation.
const (
	tagMutual = iota
	tagSelfL
	tagMutualHier
)

// hashInto feeds the conductor's full field-relevant state to h.
func (c *Conductor) hashInto(h *engine.Hasher) {
	h.Float64(c.muEff())
	h.Float64(c.shield())
	h.Int(len(c.Segments))
	for _, s := range c.Segments {
		h.Float64(s.A.X)
		h.Float64(s.A.Y)
		h.Float64(s.A.Z)
		h.Float64(s.B.X)
		h.Float64(s.B.Y)
		h.Float64(s.B.Z)
		h.Float64(s.Radius)
	}
}

// mutualKey builds the cache key for Mutual(a, b, order).
func mutualKey(a, b *Conductor, order int) engine.Key {
	h := engine.NewHasher()
	h.Int(tagMutual)
	h.Int(order)
	a.hashInto(h)
	b.hashInto(h)
	return h.Sum()
}

// digest returns the 128-bit hash of the conductor's full field-relevant
// state (see hashInto), for keys built from precomputed digests.
func (c *Conductor) digest() engine.Key {
	h := engine.NewHasher()
	c.hashInto(h)
	return h.Sum()
}

// mutualHierKey builds the cache key for MutualHier at a given theta from
// the two trees' conductor digests, hashed once per tree rather than once
// per pair. theta is part of the key: a different accuracy setting is a
// different (deterministic) result.
func mutualHierKey(a, b *SegTree, order int, theta float64) engine.Key {
	h := engine.NewHasher()
	h.Int(tagMutualHier)
	h.Int(order)
	h.Float64(theta)
	for _, d := range [2]engine.Key{a.digest, b.digest} {
		h.Uint64(d[0])
		h.Uint64(d[1])
	}
	return h.Sum()
}

// selfKey builds the cache key for c.SelfInductanceOrder(order).
func selfKey(c *Conductor, order int) engine.Key {
	h := engine.NewHasher()
	h.Int(tagSelfL)
	h.Int(order)
	c.hashInto(h)
	return h.Sum()
}

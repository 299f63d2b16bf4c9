// Package quadrature provides Gauss–Legendre quadrature rules used by the
// PEEC engine to evaluate Neumann mutual-inductance integrals.
package quadrature

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Rule holds quadrature nodes and weights on the reference interval [-1, 1].
type Rule struct {
	Nodes   []float64
	Weights []float64
}

var (
	// cache maps order → rule. It is copy-on-write: readers load the
	// current map without locking, and cacheMu only serialises the rare
	// insertion of a new order.
	cache   atomic.Pointer[map[int]Rule]
	cacheMu sync.Mutex
)

// Legendre returns the n-point Gauss–Legendre rule on [-1, 1]. Rules are
// computed once by Newton iteration on the Legendre polynomial and cached;
// a cached rule is returned without locking. n must be >= 1.
func Legendre(n int) Rule {
	if n < 1 {
		panic(fmt.Sprintf("quadrature: invalid rule order %d", n))
	}
	if m := cache.Load(); m != nil {
		if r, ok := (*m)[n]; ok {
			return r
		}
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	old := cache.Load()
	if old != nil {
		if r, ok := (*old)[n]; ok {
			return r
		}
	}
	r := newRule(n)
	next := map[int]Rule{n: r}
	if old != nil {
		maps.Copy(next, *old)
	}
	cache.Store(&next)
	return r
}

// newRule computes the n-point rule.
func newRule(n int) Rule {
	r := Rule{
		Nodes:   make([]float64, n),
		Weights: make([]float64, n),
	}
	for i := 0; i < (n+1)/2; i++ {
		// Chebyshev-like initial guess for the i-th root of P_n.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p, d := legendrePoly(n, x)
			dp = d
			dx := p / d
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		w := 2 / ((1 - x*x) * dp * dp)
		r.Nodes[i] = -x
		r.Weights[i] = w
		r.Nodes[n-1-i] = x
		r.Weights[n-1-i] = w
	}
	if n%2 == 1 {
		// Middle node is exactly zero for odd n.
		r.Nodes[n/2] = 0
		_, d := legendrePoly(n, 0)
		r.Weights[n/2] = 2 / (d * d)
	}
	return r
}

// legendrePoly evaluates the Legendre polynomial P_n and its derivative at x
// using the three-term recurrence.
func legendrePoly(n int, x float64) (p, dp float64) {
	p0, p1 := 1.0, x
	if n == 0 {
		return 1, 0
	}
	for k := 2; k <= n; k++ {
		p0, p1 = p1, ((2*float64(k)-1)*x*p1-(float64(k)-1)*p0)/float64(k)
	}
	dp = float64(n) * (x*p1 - p0) / (x*x - 1)
	return p1, dp
}

// Integrate approximates the integral of f over [a, b] with the n-point rule.
func Integrate(f func(float64) float64, a, b float64, n int) float64 {
	r := Legendre(n)
	mid, half := (a+b)/2, (b-a)/2
	sum := 0.0
	for i, x := range r.Nodes {
		sum += r.Weights[i] * f(mid+half*x)
	}
	return sum * half
}

// Integrate2D approximates the double integral of f over [a1,b1]×[a2,b2]
// using the tensor product of two n-point rules.
func Integrate2D(f func(x, y float64) float64, a1, b1, a2, b2 float64, n int) float64 {
	r := Legendre(n)
	m1, h1 := (a1+b1)/2, (b1-a1)/2
	m2, h2 := (a2+b2)/2, (b2-a2)/2
	sum := 0.0
	for i, xi := range r.Nodes {
		x := m1 + h1*xi
		rowSum := 0.0
		for j, yj := range r.Nodes {
			rowSum += r.Weights[j] * f(x, m2+h2*yj)
		}
		sum += r.Weights[i] * rowSum
	}
	return sum * h1 * h2
}

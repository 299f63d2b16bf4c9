package quadrature

import (
	"math"
	"sync"
	"testing"
)

func TestLegendreNodesKnown(t *testing.T) {
	t.Parallel()
	// 2-point rule: nodes ±1/√3, weights 1.
	r := Legendre(2)
	want := 1 / math.Sqrt(3)
	if math.Abs(r.Nodes[0]+want) > 1e-14 || math.Abs(r.Nodes[1]-want) > 1e-14 {
		t.Errorf("2-point nodes = %v", r.Nodes)
	}
	if math.Abs(r.Weights[0]-1) > 1e-14 || math.Abs(r.Weights[1]-1) > 1e-14 {
		t.Errorf("2-point weights = %v", r.Weights)
	}
	// 3-point rule: nodes 0, ±√(3/5); weights 8/9, 5/9.
	r = Legendre(3)
	if math.Abs(r.Nodes[1]) > 1e-14 {
		t.Errorf("3-point middle node = %v", r.Nodes[1])
	}
	if math.Abs(r.Nodes[2]-math.Sqrt(0.6)) > 1e-14 {
		t.Errorf("3-point node = %v", r.Nodes[2])
	}
	if math.Abs(r.Weights[1]-8.0/9) > 1e-14 {
		t.Errorf("3-point middle weight = %v", r.Weights[1])
	}
	if math.Abs(r.Weights[0]-5.0/9) > 1e-14 {
		t.Errorf("3-point edge weight = %v", r.Weights[0])
	}
}

func TestWeightsSumToTwo(t *testing.T) {
	t.Parallel()
	for n := 1; n <= 20; n++ {
		r := Legendre(n)
		sum := 0.0
		for _, w := range r.Weights {
			sum += w
		}
		if math.Abs(sum-2) > 1e-12 {
			t.Errorf("n=%d: weight sum = %v", n, sum)
		}
	}
}

func TestExactForPolynomials(t *testing.T) {
	t.Parallel()
	// n-point Gauss–Legendre integrates polynomials up to degree 2n-1 exactly.
	for n := 1; n <= 8; n++ {
		deg := 2*n - 1
		f := func(x float64) float64 { return math.Pow(x, float64(deg)) }
		got := Integrate(f, 0, 1, n)
		want := 1 / float64(deg+1)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("n=%d deg=%d: got %v want %v", n, deg, got, want)
		}
	}
}

func TestIntegrateKnown(t *testing.T) {
	t.Parallel()
	got := Integrate(math.Sin, 0, math.Pi, 12)
	if math.Abs(got-2) > 1e-10 {
		t.Errorf("∫sin over [0,π] = %v", got)
	}
	got = Integrate(func(x float64) float64 { return math.Exp(-x * x) }, -5, 5, 40)
	if math.Abs(got-math.Sqrt(math.Pi)) > 1e-8 {
		t.Errorf("gaussian integral = %v", got)
	}
}

func TestIntegrate2D(t *testing.T) {
	t.Parallel()
	// ∫∫ x*y over [0,1]² = 1/4.
	got := Integrate2D(func(x, y float64) float64 { return x * y }, 0, 1, 0, 1, 4)
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("∫∫xy = %v", got)
	}
	// ∫∫ sin(x)cos(y) over [0,π]×[0,π/2] = 2·1 = 2.
	got = Integrate2D(func(x, y float64) float64 { return math.Sin(x) * math.Cos(y) },
		0, math.Pi, 0, math.Pi/2, 12)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("∫∫sin·cos = %v", got)
	}
}

func TestInvalidOrderPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("Legendre(0) must panic")
		}
	}()
	Legendre(0)
}

func TestRuleCaching(t *testing.T) {
	t.Parallel()
	a := Legendre(7)
	b := Legendre(7)
	if &a.Nodes[0] != &b.Nodes[0] {
		t.Error("rules should be cached and shared")
	}
}

// TestLegendreConcurrent: concurrent first lookups of overlapping orders
// (run it under -race) all see one cached rule per order, equal to a
// freshly computed one.
func TestLegendreConcurrent(t *testing.T) {
	t.Parallel()
	const workers = 8
	got := make([][]Rule, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 40; n < 80; n++ {
				got[w] = append(got[w], Legendre(n+w%3))
			}
		}()
	}
	wg.Wait()
	for w, rules := range got {
		for i, r := range rules {
			n := 40 + i + w%3
			if &r.Nodes[0] != &Legendre(n).Nodes[0] {
				t.Fatalf("worker %d: order %d not the shared cached rule", w, n)
			}
			want := newRule(n)
			for k := range want.Nodes {
				if r.Nodes[k] != want.Nodes[k] || r.Weights[k] != want.Weights[k] {
					t.Fatalf("order %d node %d differs from a fresh rule", n, k)
				}
			}
		}
	}
}

package linalg

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFactor feeds arbitrary byte-derived matrices through the
// factor/resolve cycle: whatever the input — NaN, Inf, ±0, zero rows,
// wild scales — Factor must either return an error or produce a
// factorization that resolves without panicking, and both must match
// the textbook reference kernel bit for bit. The same floats are read
// once as a real matrix and once, in (re, im) pairs, as a complex one.
func FuzzFactor(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())),
		math.Float64bits(math.Inf(1))))
	seed := make([]byte, 9*8)
	for i := 0; i < 9; i++ {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(float64(i)-4.5))
	}
	f.Add(seed)
	// A NaN pivot above exact zeros: 0/NaN is NaN, so that column must
	// not skip its zero entries (real [NaN 0; 0 1], complex likewise).
	nanPivot := []float64{math.NaN(), 0, 0, 1}
	nanPivotC := []float64{math.NaN(), 0, 0, 0, 0, 0, 1, 0}
	for _, vals := range [][]float64{nanPivot, nanPivotC} {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		if n := min(int(math.Sqrt(float64(len(vals)))), 16); n >= 1 {
			b := make([]float64, n)
			for i := range b {
				b[i] = float64(i + 1)
			}
			if err := matchOracle(n, vals[:n*n], [][]float64{b}, factorRefReal, solveRefReal); err != nil {
				t.Fatalf("real n=%d: %v", n, err)
			}
		}
		if n := min(int(math.Sqrt(float64(len(vals)/2))), 16); n >= 1 {
			a := make([]complex128, n*n)
			for i := range a {
				a[i] = complex(vals[2*i], vals[2*i+1])
			}
			b := make([]complex128, n)
			for i := range b {
				b[i] = complex(float64(i+1), -1)
			}
			if err := matchOracle(n, a, [][]complex128{b}, factorRefComplex, solveRefComplex); err != nil {
				t.Fatalf("complex n=%d: %v", n, err)
			}
		}
	})
}

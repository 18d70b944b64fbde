package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestFitOLSAtMatchesDesignMatrixSolve holds the position-indexed fit to the
// two-pass one it replaced: build the design matrix [1 | xs] of the selected
// rows in selection order, run SolveLeastSquares (Gram, MulTVec) on it, and
// require the same coefficient bits — on well-conditioned data (Cholesky), on
// nearly collinear columns (ridge), and on magnitudes whose squares overflow
// (QR, which is when the fit has to materialize the matrix after all). The
// selected rows lie scattered, in shuffled order, among as many unselected
// ones, as a grid's selection lies in its clustered arrays.
func TestFitOLSAtMatchesDesignMatrixSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		n, d int
		gen  func(x []float64) float64 // fills x, returns u
	}{
		{"plane+noise d=2", 500, 2, func(x []float64) float64 {
			x[0], x[1] = rng.Float64(), rng.Float64()
			return 1 + 2*x[0] - 3*x[1] + 0.1*rng.NormFloat64()
		}},
		{"wide d=8", 300, 8, func(x []float64) float64 {
			u := 0.0
			for j := range x {
				x[j] = 20*rng.Float64() - 10
				u += float64(j) * x[j] * x[j]
			}
			return u
		}},
		{"minimal n=d+1", 4, 3, func(x []float64) float64 {
			x[0], x[1], x[2] = rng.Float64(), rng.Float64(), rng.Float64()
			return rng.Float64()
		}},
		{"near collinear", 50, 2, func(x []float64) float64 {
			x[0] = rng.Float64()
			x[1] = x[0] * (1 + 1e-9)
			return 1 + 2*x[0]
		}},
		{"duplicate column", 30, 2, func(x []float64) float64 {
			x[0] = rng.Float64()
			x[1] = x[0]
			return rng.Float64()
		}},
		{"squares overflow", 30, 2, func(x []float64) float64 { // AᵀA is +Inf: only QR can answer
			x[0], x[1] = 1e200*rng.Float64(), 1e200*rng.Float64()
			return rng.Float64()
		}},
		{"squares overflow d=3", 30, 3, func(x []float64) float64 {
			x[0], x[1], x[2] = 1e200*rng.Float64(), rng.Float64(), rng.Float64()
			return rng.Float64()
		}},
		{"constant column", 30, 2, func(x []float64) float64 {
			x[0], x[1] = rng.Float64(), 7
			return x[0]
		}},
	} {
		// Stored rows: 2n of them, the selection's i-th at pos[i].
		pts := make([]float64, 2*tc.n*tc.d)
		out := make([]float64, 2*tc.n)
		for i := range pts {
			pts[i] = rng.NormFloat64()
		}
		perm := rng.Perm(2 * tc.n)
		pos := make([]int32, tc.n)
		us := make([]float64, tc.n)
		a := NewMatrix(tc.n, tc.d+1)
		for i := range pos {
			at := perm[i]
			pos[i] = int32(at)
			x := pts[at*tc.d : (at+1)*tc.d]
			out[at] = tc.gen(x)
			us[i] = out[at]
			a.Set(i, 0, 1)
			for j, v := range x {
				a.Set(i, j+1, v)
			}
		}
		want, wantErr := SolveLeastSquares(a, us)
		m, err := FitOLSAt(pts, tc.d, out, pos)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: FitOLSAt err %v, SolveLeastSquares err %v", tc.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		got := append([]float64{m.Intercept}, m.Slope...)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("%s: coefficient %d = %v, design-matrix solve gives %v", tc.name, j, got[j], want[j])
			}
		}
	}
}

func TestFitOLSAtErrors(t *testing.T) {
	all := []int32{0, 1}
	if _, err := FitOLSAt([]float64{1, 2, 3}, 2, []float64{1, 2}, all); !errors.Is(err, ErrShape) {
		t.Errorf("3 values for 2 observations of dimension 2: err = %v", err)
	}
	if _, err := FitOLSAt(nil, -1, nil, nil); !errors.Is(err, ErrShape) {
		t.Errorf("negative dimension: err = %v", err)
	}
	if _, err := FitOLSAt([]float64{1, 2, 3, 4}, 2, []float64{1, 2}, nil); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("no observations: err = %v", err)
	}
	if _, err := FitOLSAt([]float64{1, 2, 3, 4}, 2, []float64{1, 2}, all); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("n < d+1: err = %v", err)
	}
	// Positions count observations: three reads of two stored rows are
	// enough at d = 2 (and singular, so the answer comes from the solver).
	if _, err := FitOLSAt([]float64{1, 2, 3, 4}, 2, []float64{1, 2}, []int32{0, 1, 1}); errors.Is(err, ErrTooFewObservations) {
		t.Errorf("three positions over two rows: err = %v", err)
	}
}

// fuzzValue turns one byte into an input or response value: mostly small
// dyadic values, and otherwise ±1e300, a value near 1e170, negative zero, a
// copy of the previous value (collinear columns), a constant, or a
// non-dyadic fraction.
func fuzzValue(b byte, prev float64) float64 {
	switch {
	case b < 144:
		return (float64(b) - 72) / 16
	case b < 152:
		if b%2 == 0 {
			return 1e300
		}
		return -1e300
	case b < 160:
		return (float64(b) - 155.5) * 1e170 // its square overflows
	case b < 176:
		return math.Copysign(0, -1)
	case b < 200:
		return prev
	case b < 216:
		return 7
	default:
		return float64(b) / 3
	}
}

// FuzzFitOLSAt holds the position-indexed fit to the design-matrix oracle:
// bytes become d ∈ 1..5, a few stored rows (constant and collinear columns,
// ±1e300 and negative zero among them) and a position list over them that
// may be permuted, repeat rows and leave rows out. The fit must never panic;
// its error must be SolveLeastSquares' on the gathered design matrix, its
// coefficients that solve's bits, and its RSS and TSS the bits of a plain
// mean loop followed by a residual loop over Predict.
func FuzzFitOLSAt(f *testing.F) {
	// Per d: well-conditioned small values (Cholesky), a column that is
	// mostly a copy of its neighbour (the ridge), and values near 1e170 with
	// a few ±1e300 among small ones (squares overflow: QR).
	rng := rand.New(rand.NewSource(7))
	for d := byte(0); d < 5; d++ {
		for kind := 0; kind < 3; kind++ {
			b := make([]byte, 600)
			for i := range b {
				b[i] = byte(rng.Intn(144))
				switch {
				case kind == 1 && i%7 == 2:
					b[i] = 190
				case kind == 2 && rng.Intn(4) == 0:
					b[i] = 152 + byte(rng.Intn(8))
				case kind == 2 && rng.Intn(100) == 0:
					b[i] = 150 + byte(rng.Intn(2))
				}
			}
			b[0], b[1], b[2] = d, 30, byte(rng.Intn(256))
			f.Add(b)
		}
	}
	f.Add([]byte{1, 8, 8, 150, 151, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := 0
		read := func() byte {
			if next >= len(data) {
				return 0
			}
			next++
			return data[next-1]
		}
		d := 1 + int(read())%5
		stored := d + 1 + int(read())%40
		n := d + 1 + int(read())%60
		pts := make([]float64, stored*d)
		out := make([]float64, stored)
		prev := 3.0
		for i := range out {
			for j := 0; j < d; j++ {
				prev = fuzzValue(read(), prev)
				pts[i*d+j] = prev
			}
			prev = fuzzValue(read(), prev)
			out[i] = prev
		}
		pos := make([]int32, n)
		a := NewMatrix(n, d+1)
		us := make([]float64, n)
		for i := range pos {
			at := int(read()) % stored
			pos[i] = int32(at)
			a.Set(i, 0, 1)
			for j := 0; j < d; j++ {
				a.Set(i, j+1, pts[at*d+j])
			}
			us[i] = out[at]
		}
		want, wantErr := SolveLeastSquares(a, us)
		m, err := FitOLSAt(pts, d, out, pos)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("FitOLSAt err %v, SolveLeastSquares err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		got := append([]float64{m.Intercept}, m.Slope...)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("d=%d n=%d: coefficient %d = %v, design-matrix solve gives %v", d, n, j, got[j], want[j])
			}
		}
		mean := 0.0
		for _, u := range us {
			mean += u
		}
		mean /= float64(n)
		var rss, tss float64
		for i, u := range us {
			at := int(pos[i])
			r := u - m.Predict(pts[at*d:at*d+d])
			rss += r * r
			c := u - mean
			tss += c * c
		}
		if m.N != n || math.Float64bits(m.RSS) != math.Float64bits(rss) || math.Float64bits(m.TSS) != math.Float64bits(tss) {
			t.Fatalf("d=%d n=%d: N, RSS, TSS = %d, %v, %v; reference %d, %v, %v", d, n, m.N, m.RSS, m.TSS, n, rss, tss)
		}
	})
}

// BenchmarkFitOLSAt measures the fit alone over the selection size of
// exact_mixed's regressions: 6 500 positions, in ascending runs, into
// 200 000 stored rows — at d = 2 (the register sums) and d = 5 (the general
// loop).
func BenchmarkFitOLSAt(b *testing.B) {
	for _, d := range []int{2, 5} {
		b.Run("d="+strconv.Itoa(d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			const stored, n = 200000, 6500
			pts, out := make([]float64, stored*d), make([]float64, stored)
			for i := range pts {
				pts[i] = rng.Float64()
			}
			for i := range out {
				out[i] = rng.NormFloat64()
			}
			pos := make([]int32, 0, n)
			for len(pos) < n {
				at := rng.Intn(stored - 64)
				for r := 0; r < 64 && len(pos) < n; r++ {
					pos = append(pos, int32(at+r))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitOLSAt(pts, d, out, pos); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

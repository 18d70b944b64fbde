package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestFitOLSFlatMatchesDesignMatrixSolve holds the one-pass fit to the
// two-pass one it replaced: build the design matrix [1 | xs], run
// SolveLeastSquares (Gram, MulTVec) on it, and require the same coefficient
// bits — on well-conditioned data (Cholesky), on nearly collinear columns
// (ridge), and on magnitudes whose squares overflow (QR, which is when the
// flat fit has to materialize the matrix after all).
func TestFitOLSFlatMatchesDesignMatrixSolve(t *testing.T) {
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
		{"constant column", 30, 2, func(x []float64) float64 {
			x[0], x[1] = rng.Float64(), 7
			return x[0]
		}},
	} {
		xs := make([]float64, tc.n*tc.d)
		us := make([]float64, tc.n)
		a := NewMatrix(tc.n, tc.d+1)
		for i := range us {
			x := xs[i*tc.d : (i+1)*tc.d]
			us[i] = tc.gen(x)
			a.Set(i, 0, 1)
			for j, v := range x {
				a.Set(i, j+1, v)
			}
		}
		want, wantErr := SolveLeastSquares(a, us)
		m, err := FitOLSFlat(xs, tc.d, us)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: FitOLSFlat err %v, SolveLeastSquares err %v", tc.name, err, wantErr)
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
		// The [][]float64 entry point is a wrapper over the same fit.
		rows := make([][]float64, tc.n)
		for i := range rows {
			rows[i] = xs[i*tc.d : (i+1)*tc.d]
		}
		w, err := FitOLS(rows, us)
		if err != nil {
			t.Fatalf("%s: FitOLS: %v", tc.name, err)
		}
		if math.Float64bits(w.RSS) != math.Float64bits(m.RSS) || math.Float64bits(w.TSS) != math.Float64bits(m.TSS) ||
			math.Float64bits(w.Intercept) != math.Float64bits(m.Intercept) {
			t.Errorf("%s: FitOLS and FitOLSFlat disagree: %+v vs %+v", tc.name, w, m)
		}
	}
}

func TestFitOLSFlatErrors(t *testing.T) {
	if _, err := FitOLSFlat([]float64{1, 2, 3}, 2, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("3 values for 2 observations of dimension 2: err = %v", err)
	}
	if _, err := FitOLSFlat(nil, -1, nil); !errors.Is(err, ErrShape) {
		t.Errorf("negative dimension: err = %v", err)
	}
	if _, err := FitOLSFlat(nil, 2, nil); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("no observations: err = %v", err)
	}
	if _, err := FitOLSFlat([]float64{1, 2, 3, 4}, 2, []float64{1, 2}); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("n < d+1: err = %v", err)
	}
}

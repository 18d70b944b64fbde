package linalg

import (
	"errors"
	"fmt"
	"math"
)

// OLSModel is a fitted ordinary least squares multivariate linear regression
// u ≈ b0 + b·x. It is the exact "REG" baseline the paper compares against
// (Definition 1), computed with full access to the data subspace.
type OLSModel struct {
	// Intercept is the fitted intercept b0.
	Intercept float64
	// Slope holds the fitted coefficients b1..bd.
	Slope []float64
	// N is the number of observations the model was fitted on.
	N int
	// RSS is the residual sum of squares on the training observations.
	RSS float64
	// TSS is the total sum of squares of the response around its mean.
	TSS float64
}

// ErrTooFewObservations is returned when a regression is requested over
// fewer observations than coefficients to fit.
var ErrTooFewObservations = errors.New("linalg: too few observations for regression")

// FitOLS fits u ≈ b0 + b·x by least squares over the given observations.
// xs[i] is the i-th input vector (all must share the same dimension d) and
// us[i] the corresponding response. At least d+1 observations are required.
func FitOLS(xs [][]float64, us []float64) (*OLSModel, error) {
	if len(xs) != len(us) {
		return nil, fmt.Errorf("%w: %d inputs vs %d responses", ErrShape, len(xs), len(us))
	}
	n := len(xs)
	if n == 0 {
		return nil, ErrTooFewObservations
	}
	d := len(xs[0])
	if n < d+1 {
		return nil, fmt.Errorf("%w: n=%d, need at least %d", ErrTooFewObservations, n, d+1)
	}
	flat := make([]float64, 0, n*d)
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("%w: observation %d has dimension %d, want %d", ErrShape, i, len(x), d)
		}
		flat = append(flat, x...)
	}
	return FitOLSFlat(flat, d, us)
}

// FitOLSFlat is FitOLS over row-major input: observation i is
// xs[i*d:(i+1)*d]. It accumulates the normal equations AᵀA and Aᵀu of the
// design matrix A = [1 | xs] in one pass over the rows — every entry the
// same top-to-bottom sum Gram and MulTVec take, so the fit equals FitOLS to
// the last bit — and materializes A only if the solver falls back to QR.
func FitOLSFlat(xs []float64, d int, us []float64) (*OLSModel, error) {
	n := len(us)
	if d < 0 || len(xs) != n*d {
		return nil, fmt.Errorf("%w: %d values are not %d observations of dimension %d", ErrShape, len(xs), n, d)
	}
	if n == 0 {
		return nil, ErrTooFewObservations
	}
	if n < d+1 {
		return nil, fmt.Errorf("%w: n=%d, need at least %d", ErrTooFewObservations, n, d+1)
	}
	k := d + 1
	g := NewMatrix(k, k)
	buf := make([]float64, 2*k)
	atu, row := buf[:k:k], buf[k:]
	row[0] = 1 // the intercept column
	for i, u := range us {
		for j, v := range xs[i*d : (i+1)*d] { // d is small: cheaper than a copy call
			row[j+1] = v
		}
		for a, va := range row {
			ga := g.data[a*k : (a+1)*k]
			for b := a; b < k; b++ {
				ga[b] += va * row[b]
			}
			atu[a] += va * u
		}
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.data[b*k+a] = g.data[a*k+b]
		}
	}
	coef, err := solveNormal(g, atu, us, func() *Matrix {
		a := NewMatrix(n, k)
		for i := 0; i < n; i++ {
			a.data[i*k] = 1
			copy(a.data[i*k+1:(i+1)*k], xs[i*d:(i+1)*d])
		}
		return a
	})
	if err != nil {
		return nil, err
	}
	m := &OLSModel{Intercept: coef[0], Slope: coef[1:], N: n}
	// Diagnostics.
	mean := 0.0
	for _, u := range us {
		mean += u
	}
	mean /= float64(n)
	for i, u := range us {
		r := u - m.Predict(xs[i*d:(i+1)*d])
		m.RSS += r * r
		t := u - mean
		m.TSS += t * t
	}
	return m, nil
}

// Predict returns the fitted value b0 + b·x.
func (m *OLSModel) Predict(x []float64) float64 {
	s := m.Intercept
	for j, b := range m.Slope {
		s += b * x[j]
	}
	return s
}

// R2 returns the coefficient of determination 1 - RSS/TSS on the training
// data. When the response is constant (TSS == 0) it returns 1 if the fit is
// exact and 0 otherwise.
func (m *OLSModel) R2() float64 {
	if m.TSS == 0 {
		if m.RSS == 0 {
			return 1
		}
		return 0
	}
	return 1 - m.RSS/m.TSS
}

// FVU returns the fraction of variance unexplained RSS/TSS on the training
// data (the paper's goodness-of-fit metric s). For a constant response it
// returns 0 for an exact fit and +Inf otherwise.
func (m *OLSModel) FVU() float64 {
	if m.TSS == 0 {
		if m.RSS == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return m.RSS / m.TSS
}

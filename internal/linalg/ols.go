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

// FitOLSAt fits u ≈ b0 + b·x by least squares over the observations at the
// given positions, read where they lie: observation at has input
// pts[at*d:(at+1)*d] and response out[at], so a caller with a selection of
// positions into row-major columns fits it without gathering it. Positions
// may repeat and come in any order; each must index an observation, and at
// least d+1 are required.
//
// The fit reads every selected row twice. The first pass accumulates the
// normal equations AᵀA and Aᵀu of the design matrix A = [1 | x] — every
// entry the same top-to-bottom sum Gram and MulTVec take over the gathered
// rows, so the coefficients equal SolveLeastSquares' to the last bit — and
// Aᵀu's first entry is the response's sum, which gives TSS its mean. The
// second pass needs the coefficients: it sums the residuals of Predict's
// expression and the deviations from the mean into RSS and TSS. A is
// materialized only if the solver falls back to QR.
func FitOLSAt(pts []float64, d int, out []float64, pos []int32) (*OLSModel, error) {
	if d < 0 || len(pts) != len(out)*d {
		return nil, fmt.Errorf("%w: %d values are not %d observations of dimension %d", ErrShape, len(pts), len(out), d)
	}
	n := len(pos)
	if n == 0 {
		return nil, ErrTooFewObservations
	}
	if n < d+1 {
		return nil, fmt.Errorf("%w: n=%d, need at least %d", ErrTooFewObservations, n, d+1)
	}
	k := d + 1
	buf := make([]float64, k*k+k) // AᵀA and Aᵀu in one allocation
	g, atu := &Matrix{rows: k, cols: k, data: buf[: k*k : k*k]}, buf[k*k:]
	if d == 2 {
		normal2(g.data, atu, pts, out, pos)
	} else {
		normal(g.data, atu, pts, d, out, pos)
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g.data[b*k+a] = g.data[a*k+b]
		}
	}
	coef, err := solveNormal(g, atu, func() (*Matrix, []float64) {
		a, us := NewMatrix(n, k), make([]float64, n)
		for i, at := range pos {
			a.data[i*k] = 1
			copy(a.data[i*k+1:(i+1)*k], pts[int(at)*d:(int(at)+1)*d])
			us[i] = out[at]
		}
		return a, us
	})
	if err != nil {
		return nil, err
	}
	m := &OLSModel{Intercept: coef[0], Slope: coef[1:], N: n}
	mean := atu[0] / float64(n)
	if d == 2 {
		m.RSS, m.TSS = residuals2(coef, mean, pts, out, pos)
		return m, nil
	}
	for _, at := range pos {
		u := out[at]
		r := u - m.Predict(pts[int(at)*d:(int(at)+1)*d])
		m.RSS += r * r
		t := u - mean
		m.TSS += t * t
	}
	return m, nil
}

// normal adds the selected rows' contributions to the upper triangle of the
// k×k row-major g = AᵀA and to atu = Aᵀu, row by row, for any d. Row 0 of
// AᵀA and atu[0] are the intercept column's: its 1·v is v to the bit.
func normal(g, atu, pts []float64, d int, out []float64, pos []int32) {
	k := d + 1
	g0 := g[:k]
	for _, at := range pos {
		x := pts[int(at)*d : (int(at)+1)*d]
		u := out[at]
		g0[0]++
		for j, v := range x {
			g0[j+1] += v
		}
		atu[0] += u
		for a, va := range x {
			ga := g[(a+1)*k+1 : (a+2)*k]
			for b := a; b < d; b++ {
				ga[b] += va * x[b]
			}
			atu[a+1] += va * u
		}
	}
}

// normal2 is normal at d = 2, with the nine sums in registers. The count of
// rows is AᵀA's corner: a sum of ones is exact.
func normal2(g, atu, pts []float64, out []float64, pos []int32) {
	var s1, s2, s11, s12, s22, su, s1u, s2u float64
	for _, at := range pos {
		x := pts[int(at)*2 : int(at)*2+2 : int(at)*2+2]
		x1, x2, u := x[0], x[1], out[at]
		s1 += x1
		s2 += x2
		su += u
		s11 += x1 * x1
		s12 += x1 * x2
		s22 += x2 * x2
		s1u += x1 * u
		s2u += x2 * u
	}
	g[0], g[1], g[2] = float64(len(pos)), s1, s2
	g[4], g[5] = s11, s12
	g[8] = s22
	atu[0], atu[1], atu[2] = su, s1u, s2u
}

// residuals2 is FitOLSAt's second pass at d = 2: Predict's expression
// b0 + b1·x1 + b2·x2, summed in the same order, without the slice walk.
func residuals2(coef []float64, mean float64, pts, out []float64, pos []int32) (rss, tss float64) {
	b0, b1, b2 := coef[0], coef[1], coef[2]
	for _, at := range pos {
		x := pts[int(at)*2 : int(at)*2+2 : int(at)*2+2]
		u := out[at]
		s := b0
		s += b1 * x[0]
		s += b2 * x[1]
		r := u - s
		rss += r * r
		t := u - mean
		tss += t * t
	}
	return rss, tss
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

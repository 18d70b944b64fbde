package core

import (
	"fmt"
	"math"
)

// newRLS returns the initial RLS state P = (1/delta)·I over n = d+2 local
// parameters.
func newRLS(n int, delta float64) []float64 {
	p := make([]float64, n*n)
	for i := 0; i < n; i++ {
		p[i*n+i] = 1 / delta
	}
	return p
}

// rlsUpdate applies one recursive-least-squares step to the coefficient row
// coef = [y, b_X, b_Θ] and its inverse covariance p, for the regressor
// z = [1, x − x_k, θ − θ_k] — laid out like coef — and residual
// res = y − f_k(x, θ), using pz as len(z)-sized scratch (the writer's, so
// the training hot path does not allocate). It returns the Γ^H contribution
// of the step (the norm of the slope change plus the absolute intercept
// change). The prototype itself is not moved here.
func rlsUpdate(p, coef, z, pz []float64, res float64) float64 {
	n := len(z)
	// pz = P·z and the scalar s = 1 + zᵀ·P·z.
	for i := 0; i < n; i++ {
		row := p[i*n : (i+1)*n]
		var acc float64
		for j := 0; j < n; j++ {
			acc += row[j] * z[j]
		}
		pz[i] = acc
	}
	s := 1.0
	for i := 0; i < n; i++ {
		s += z[i] * pz[i]
	}
	// Gain k = P·z / s; parameter update Δ = k·res.
	dy := pz[0] / s * res
	coef[0] += dy
	var db float64
	for i := 1; i < n; i++ {
		delta := pz[i] / s * res
		coef[i] += delta
		db += delta * delta
	}
	// P ← P − (P·z)(P·z)ᵀ / s.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p[i*n+j] -= pz[i] * pz[j] / s
		}
	}
	return math.Sqrt(db) + math.Abs(dy)
}

// LocalLinear is one element of the answer list S of a Q2 query: a local
// linear regression u ≈ Intercept + Slope·x valid around the data subspace
// D(Center, Theta) (Eq. 13).
type LocalLinear struct {
	// Intercept is the u-intercept of the local plane.
	Intercept float64
	// Slope is the coefficient vector over the input attributes.
	Slope []float64
	// Center and Theta describe the data subspace the model is local to.
	Center []float64
	Theta  float64
	// Weight is the normalized overlap degree δ̃ of the prototype with the
	// issued query (0 when the model was obtained by extrapolation).
	Weight float64
}

// Predict evaluates the local plane at x.
func (m LocalLinear) Predict(x []float64) float64 {
	s := m.Intercept
	for i, b := range m.Slope {
		s += b * x[i]
	}
	return s
}

// String renders the local model as "u ≈ b0 + b1*x1 + ...".
func (m LocalLinear) String() string {
	s := fmt.Sprintf("u ≈ %.4g", m.Intercept)
	for i, b := range m.Slope {
		s += fmt.Sprintf(" %+.4g·x%d", b, i+1)
	}
	return s
}

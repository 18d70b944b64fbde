package core

import (
	"fmt"
	"math"
	"slices"
)

// LLM is one Local Linear Mapping f_k: Q_k → R, the first-order Taylor
// approximation of the regression function f(x, θ) around the prototype
// w_k = [x_k, θ_k] of the query subspace Q_k (Section III-A):
//
//	f_k(x, θ) ≈ y_k + b_{X,k}(x − x_k)ᵀ + b_{Θ,k}(θ − θ_k).
//
// It is a value: Model.LLMs builds one per live prototype from the model's
// flat rows, and nothing in the model refers to it afterwards.
type LLM struct {
	// CenterPrototype is x_k, the input-space part of the prototype.
	CenterPrototype []float64
	// ThetaPrototype is θ_k, the radius part of the prototype.
	ThetaPrototype float64
	// Intercept is y_k, the local expectation of the answer at the prototype.
	Intercept float64
	// SlopeX is b_{X,k}, the gradient with respect to the query centre.
	SlopeX []float64
	// SlopeTheta is b_{Θ,k}, the gradient with respect to the radius.
	SlopeTheta float64
	// Wins counts how many training pairs this LLM has absorbed.
	Wins int

	// p is the inverse-covariance state of the recursive-least-squares
	// solver, laid out row-major over the (d+2) local parameters
	// [y, b_X, b_Θ]. It is nil before the prototype's first RLS step and
	// when the SGD solver is used.
	p []float64
}

// Dim returns the input dimensionality d of the LLM.
func (l *LLM) Dim() int { return len(l.CenterPrototype) }

// proto lays the LLM out as the flat rows [x_k, θ_k] and [y_k, b_X, b_Θ]
// the model stores and every evaluator reads.
func (l *LLM) proto() proto {
	w := l.Dim() + 1
	vals := append(append(make([]float64, 0, 2*w+1), l.CenterPrototype...), l.ThetaPrototype, l.Intercept)
	vals = append(append(vals, l.SlopeX...), l.SlopeTheta)
	return proto{row: vals[:w], coef: vals[w:]}
}

// PrototypeQuery returns the prototype as a Query value w_k = [x_k, θ_k].
func (l *LLM) PrototypeQuery() Query {
	return Query{Center: slices.Clone(l.CenterPrototype), Theta: l.ThetaPrototype}
}

// Eval evaluates f_k(x, θ) (Eq. 5 / Eq. 12).
func (l *LLM) Eval(center []float64, theta float64) float64 {
	return l.proto().eval(center, theta)
}

// EvalAtPrototypeRadius evaluates f_k(x, θ_k), i.e. the LLM restricted to its
// own radius. By Theorem 3 this is the local linear approximation of the data
// function g over the data subspace D_k.
func (l *LLM) EvalAtPrototypeRadius(x []float64) float64 {
	return l.proto().evalAtPrototypeRadius(x)
}

// Residual returns the prediction error y − f_k(x, θ) for a training pair;
// it is the common factor of the SGD updates of Theorem 4.
func (l *LLM) Residual(center []float64, theta, y float64) float64 {
	return y - l.Eval(center, theta)
}

// DataModel converts the LLM into the explicit local linear regression of
// the data function g over D_k (Theorem 3): u ≈ intercept + slope·x with
// slope b_{X,k} and intercept y_k − b_{X,k}·x_kᵀ.
func (l *LLM) DataModel() LocalLinear { return l.proto().dataModel() }

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

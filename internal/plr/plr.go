// Package plr implements the Piecewise Linear Regression (PLR) baseline the
// paper compares against: a multivariate adaptive regression splines style
// model (Friedman 1991, the method behind the ARESLab toolbox the paper
// uses). The model is built with full access to the data in a selected
// subspace by
//
//  1. a forward pass that greedily adds pairs of hinge basis functions
//     max(0, x_j - t) / max(0, t - x_j) at data-driven knots until a maximum
//     number of basis functions is reached, and
//  2. a backward pruning pass that removes basis functions while the
//     generalized cross-validation (GCV) score improves, using the paper's
//     penalty of 3 per knot.
//
// Like the paper's PLR it is deliberately expensive: every fit requires the
// subspace's data and repeated least-squares solves. Its role is to provide
// the goodness-of-fit upper bound that the LLM model approaches without
// touching the data.
package plr

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"llmq/internal/linalg"
)

// Errors returned by Fit.
var (
	ErrTooFewPoints = errors.New("plr: too few points to fit")
	ErrDimension    = errors.New("plr: dimension mismatch")
)

// Options configure a PLR fit.
type Options struct {
	// MaxBasis caps the number of basis functions (excluding the intercept)
	// produced by the forward pass. The paper caps PLR's models at K, the
	// number of LLM prototypes. Values <= 0 default to 20.
	MaxBasis int
	// GCVPenalty is the per-knot penalty in the GCV denominator; the paper
	// uses 3. Values <= 0 default to 3.
	GCVPenalty float64
	// MaxCandidateKnots bounds the number of candidate knots examined per
	// variable in the forward pass (quantile-spaced). Values <= 0 default
	// to 16.
	MaxCandidateKnots int
	// MinImprovement stops the forward pass early when the relative RSS
	// improvement of the best candidate falls below it. Values <= 0 default
	// to 1e-4.
	MinImprovement float64
}

func (o Options) withDefaults() Options {
	if o.MaxBasis <= 0 {
		o.MaxBasis = 20
	}
	if o.GCVPenalty <= 0 {
		o.GCVPenalty = 3
	}
	if o.MaxCandidateKnots <= 0 {
		o.MaxCandidateKnots = 16
	}
	if o.MinImprovement <= 0 {
		o.MinImprovement = 1e-4
	}
	return o
}

// BasisFunction is one hinge basis function h(x) = max(0, sign*(x_j - knot)).
type BasisFunction struct {
	// Var is the input variable index j.
	Var int
	// Knot is the hinge location t.
	Knot float64
	// Positive selects max(0, x_j - t) when true and max(0, t - x_j) when
	// false.
	Positive bool
}

// Eval evaluates the hinge at x.
func (b BasisFunction) Eval(x []float64) float64 {
	v := x[b.Var] - b.Knot
	if !b.Positive {
		v = -v
	}
	if v < 0 {
		return 0
	}
	return v
}

// Model is a fitted piecewise linear regression model
// u ≈ c0 + Σ_m c_m · h_m(x).
type Model struct {
	// Intercept is c0.
	Intercept float64
	// Coefficients holds c_m, aligned with Basis.
	Coefficients []float64
	// Basis holds the retained hinge functions.
	Basis []BasisFunction
	// GCV is the generalized cross-validation score of the final model.
	GCV float64
	// RSS and TSS are the residual and total sum of squares on the training
	// data.
	RSS float64
	TSS float64
	// N is the number of training observations.
	N int
}

// Predict evaluates the model at x.
func (m *Model) Predict(x []float64) float64 {
	s := m.Intercept
	for i, b := range m.Basis {
		s += m.Coefficients[i] * b.Eval(x)
	}
	return s
}

// FVU returns the fraction of variance unexplained on the training data.
func (m *Model) FVU() float64 {
	if m.TSS == 0 {
		if m.RSS == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return m.RSS / m.TSS
}

// R2 returns the coefficient of determination on the training data.
func (m *Model) R2() float64 {
	if m.TSS == 0 {
		if m.RSS == 0 {
			return 1
		}
		return 0
	}
	return 1 - m.RSS/m.TSS
}

// Fit builds a PLR model of us on xs.
func Fit(xs [][]float64, us []float64, opts Options) (*Model, error) {
	if len(xs) != len(us) {
		return nil, fmt.Errorf("%w: %d inputs vs %d responses", ErrDimension, len(xs), len(us))
	}
	n := len(xs)
	if n < 4 {
		return nil, fmt.Errorf("%w: n=%d", ErrTooFewPoints, n)
	}
	d := len(xs[0])
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("%w: observation %d has dim %d, want %d", ErrDimension, i, len(x), d)
		}
	}
	o := opts.withDefaults()

	// Forward pass.
	basis := forwardPass(xs, us, o)
	// Backward pruning by GCV.
	basis = backwardPrune(xs, us, basis, o)
	// Final coefficients.
	coef, rss, err := fitCoefficients(xs, us, basis)
	if err != nil {
		return nil, err
	}
	tss := totalSS(us)
	m := &Model{
		Intercept:    coef[0],
		Coefficients: coef[1:],
		Basis:        basis,
		RSS:          rss,
		TSS:          tss,
		N:            n,
		GCV:          gcv(rss, n, len(basis), o.GCVPenalty),
	}
	return m, nil
}

// forwardPass greedily adds hinge pairs that most reduce the RSS.
func forwardPass(xs [][]float64, us []float64, o Options) []BasisFunction {
	d := len(xs[0])
	var basis []BasisFunction
	_, bestRSS, err := fitCoefficients(xs, us, basis)
	if err != nil {
		return basis
	}
	for len(basis) < o.MaxBasis {
		if bestRSS <= 1e-12 {
			break // already an (essentially) exact fit
		}
		type candidate struct {
			pair []BasisFunction
			rss  float64
		}
		best := candidate{rss: math.Inf(1)}
		for j := 0; j < d; j++ {
			for _, knot := range candidateKnots(xs, j, o.MaxCandidateKnots) {
				pair := []BasisFunction{
					{Var: j, Knot: knot, Positive: true},
					{Var: j, Knot: knot, Positive: false},
				}
				trial := append(append([]BasisFunction(nil), basis...), pair...)
				if _, rss, err := fitCoefficients(xs, us, trial); err == nil && rss < best.rss {
					best = candidate{pair: pair, rss: rss}
				}
			}
		}
		if best.pair == nil {
			break
		}
		if bestRSS > 0 && (bestRSS-best.rss)/bestRSS < o.MinImprovement {
			break
		}
		basis = append(basis, best.pair...)
		bestRSS = best.rss
		if bestRSS <= 1e-12 {
			break
		}
	}
	return basis
}

// backwardPrune removes basis functions while the GCV score improves.
func backwardPrune(xs [][]float64, us []float64, basis []BasisFunction, o Options) []BasisFunction {
	n := len(xs)
	_, rss, err := fitCoefficients(xs, us, basis)
	if err != nil {
		return basis
	}
	bestBasis := basis
	bestGCV := gcv(rss, n, len(basis), o.GCVPenalty)
	current := basis
	for len(current) > 0 {
		// Try removing each basis function; keep the removal with the best GCV.
		bestLocalGCV := math.Inf(1)
		var bestLocal []BasisFunction
		for i := range current {
			trial := make([]BasisFunction, 0, len(current)-1)
			trial = append(trial, current[:i]...)
			trial = append(trial, current[i+1:]...)
			if _, rss, err := fitCoefficients(xs, us, trial); err == nil {
				if g := gcv(rss, n, len(trial), o.GCVPenalty); g < bestLocalGCV {
					bestLocalGCV = g
					bestLocal = trial
				}
			}
		}
		if bestLocal == nil {
			break
		}
		current = bestLocal
		// Ties favour the smaller model, so pruning never keeps redundant
		// hinges that do not improve the fit.
		if bestLocalGCV <= bestGCV {
			bestGCV = bestLocalGCV
			bestBasis = current
		}
	}
	return bestBasis
}

// fitCoefficients solves least squares for the intercept plus the given
// basis functions and returns (coefficients, RSS).
func fitCoefficients(xs [][]float64, us []float64, basis []BasisFunction) ([]float64, float64, error) {
	n := len(xs)
	cols := 1 + len(basis)
	if n < cols {
		return nil, 0, fmt.Errorf("%w: %d observations for %d coefficients", ErrTooFewPoints, n, cols)
	}
	a := linalg.NewMatrix(n, cols)
	for i, x := range xs {
		a.Set(i, 0, 1)
		for j, b := range basis {
			a.Set(i, j+1, b.Eval(x))
		}
	}
	coef, err := linalg.SolveLeastSquares(a, us)
	if err != nil {
		return nil, 0, err
	}
	var rss float64
	for i, x := range xs {
		pred := coef[0]
		for j, b := range basis {
			pred += coef[j+1] * b.Eval(x)
		}
		r := us[i] - pred
		rss += r * r
	}
	return coef, rss, nil
}

// candidateKnots returns up to maxKnots quantile-spaced candidate knot
// locations for variable j, excluding the extremes (a hinge at the minimum or
// maximum is degenerate).
func candidateKnots(xs [][]float64, j, maxKnots int) []float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = x[j]
	}
	sort.Float64s(vals)
	// Deduplicate.
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= 2 {
		return nil
	}
	interior := uniq[1 : len(uniq)-1]
	if len(interior) <= maxKnots {
		return append([]float64(nil), interior...)
	}
	out := make([]float64, 0, maxKnots)
	step := float64(len(interior)-1) / float64(maxKnots-1)
	for k := 0; k < maxKnots; k++ {
		out = append(out, interior[int(math.Round(float64(k)*step))])
	}
	return out
}

// gcv computes the generalized cross-validation score
// RSS/n / (1 - C(m)/n)² with effective parameters C(m) = (m+1) + penalty·m/2
// (m basis functions ⇒ m/2 knots).
func gcv(rss float64, n, numBasis int, penalty float64) float64 {
	c := float64(numBasis+1) + penalty*float64(numBasis)/2
	denom := 1 - c/float64(n)
	if denom <= 0 {
		return math.Inf(1)
	}
	return (rss / float64(n)) / (denom * denom)
}

func totalSS(us []float64) float64 {
	var mean float64
	for _, u := range us {
		mean += u
	}
	mean /= float64(len(us))
	var tss float64
	for _, u := range us {
		d := u - mean
		tss += d * d
	}
	return tss
}

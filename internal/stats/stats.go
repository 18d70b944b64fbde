// Package stats implements the evaluation harness's metrics exactly as
// defined in Section VI of the paper: a streaming mean, the prediction error
// RMSE (metrics A1/A2), and the goodness-of-fit metrics SSR, TSS, FVU and
// CoD/R² over a data subspace.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned by metrics that require at least one observation.
var ErrEmpty = errors.New("stats: no observations")

// Running accumulates the mean of a stream of observations using Welford's
// update. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
}

// Add folds a new observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// Mean returns the running mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// RMSE returns the root mean squared error between actual and predicted
// values (metrics A1/A2 of the paper): the root of SSR over the count.
func RMSE(actual, predicted []float64) (float64, error) {
	ssr, err := SSR(actual, predicted)
	if err == nil && len(actual) == 0 {
		err = ErrEmpty
	}
	if err != nil {
		return 0, err
	}
	return math.Sqrt(ssr / float64(len(actual))), nil
}

// SSR returns the sum of squared residuals Σ(u_i - û_i)².
func SSR(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(actual), len(predicted))
	}
	var s float64
	for i := range actual {
		d := actual[i] - predicted[i]
		s += d * d
	}
	return s, nil
}

// TSS returns the total sum of squares Σ(u_i - ū)².
func TSS(actual []float64) (float64, error) {
	m, err := Mean(actual)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, u := range actual {
		d := u - m
		s += d * d
	}
	return s, nil
}

// GoodnessOfFit bundles the paper's Q2 evaluation metrics over one data
// subspace: the Fraction of Variance Unexplained s = SSR/TSS and the
// Coefficient of Determination R² = 1 - s.
type GoodnessOfFit struct {
	SSR float64
	TSS float64
	FVU float64
	CoD float64
	N   int
}

// Fit computes FVU and CoD for a set of actual values and their
// approximations over a data subspace. When the actual values are constant
// (TSS == 0), FVU is reported as 0 for a perfect approximation and +Inf
// otherwise, mirroring the convention in internal/linalg.
func Fit(actual, predicted []float64) (GoodnessOfFit, error) {
	ssr, err := SSR(actual, predicted)
	if err != nil {
		return GoodnessOfFit{}, err
	}
	tss, err := TSS(actual)
	if err != nil {
		return GoodnessOfFit{}, err
	}
	g := GoodnessOfFit{SSR: ssr, TSS: tss, N: len(actual)}
	if tss == 0 {
		if ssr == 0 {
			g.FVU = 0
			g.CoD = 1
		} else {
			g.FVU = math.Inf(1)
			g.CoD = math.Inf(-1)
		}
		return g, nil
	}
	g.FVU = ssr / tss
	g.CoD = 1 - g.FVU
	return g, nil
}

package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between the two nearest order statistics. It returns NaN on
// an empty sample so a missing measurement can never read as a fast one.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the 0.5-quantile of vals (NaN when empty).
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 0.5) }

// windowRate reduces per-second completion counts to one rate: the median
// of the 1-second windows, which a stall in one second (a neighbour VM
// burst, a GC cycle) cannot move the way it moves a whole-run mean.
func windowRate(perSecond []int) float64 {
	vals := make([]float64, len(perSecond))
	for i, c := range perSecond {
		vals[i] = float64(c)
	}
	return median(vals)
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method) —
// the estimator the acceptance driver applies to ten runs — so the A/A
// report reads the same spread the driver will.
func quartiles(vals []float64) (q1, q3 float64) {
	data := sortedCopy(vals)
	ld := len(data)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance of vals as a share of their
// median: the run-to-run spread the benchmark's bounds are judged against.
func spreadShare(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// rmse is the root-mean-square difference of two equally long samples.
func rmse(a, b []float64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return math.NaN()
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a)))
}

// mean is the arithmetic mean of vals (NaN when empty).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

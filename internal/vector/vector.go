// Package vector holds the distance kernels of the library. A point — a
// query centre x, a query [x, θ], a data row, a prototype — is a plain
// []float64 everywhere; this package measures and formats such slices
// without copying them.
//
// This file keeps the sequential reference kernels: Distance, SqDistance
// and DistanceLp (Definition 2 of the paper), which the exact path's non-L2
// filter and the Query geometry in internal/core call, and Format, the one
// rendering of a point in text. flat.go and chunked.go hold the unrolled
// kernels the prototype searches run over row-major matrices; sentinel.go
// the masking of excluded rows.
package vector

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrDimensionMismatch is the error a kernel panics with (wrapped) when its
// operands differ in dimension.
var ErrDimensionMismatch = errors.New("vector: dimension mismatch")

// Format renders x as "[x1, x2, ...]", each component with 6 significant
// digits.
func Format(x []float64) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range x {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
	}
	sb.WriteByte(']')
	return sb.String()
}

// Distance returns the L2 distance between v and w.
func Distance(v, w []float64) float64 {
	return math.Sqrt(SqDistance(v, w))
}

// SqDistance returns the squared L2 distance between v and w, summed in
// index order.
func SqDistance(v, w []float64) float64 {
	if len(v) != len(w) {
		panic(dimError("SqDistance", len(v), len(w)))
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// DistanceLp returns the Lp distance between v and w (Definition 2 of the
// paper). p must be >= 1 or math.Inf(1).
func DistanceLp(v, w []float64, p float64) float64 {
	if len(v) != len(w) {
		panic(dimError("DistanceLp", len(v), len(w)))
	}
	switch {
	case math.IsInf(p, 1):
		var m float64
		for i := range v {
			if a := math.Abs(v[i] - w[i]); a > m {
				m = a
			}
		}
		return m
	case p == 1:
		var s float64
		for i := range v {
			s += math.Abs(v[i] - w[i])
		}
		return s
	case p == 2:
		return Distance(v, w)
	case p < 1:
		panic("vector: DistanceLp requires p >= 1")
	default:
		var s float64
		for i := range v {
			s += math.Pow(math.Abs(v[i]-w[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}

func dimError(op string, a, b int) error {
	return fmt.Errorf("%w in %s: %d vs %d", ErrDimensionMismatch, op, a, b)
}

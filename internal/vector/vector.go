// Package vector provides small dense real vectors and the Lp distance
// kernel used throughout the library: query centres, data points and
// quantization prototypes are all represented as Vec values.
//
// The package is deliberately allocation-conscious: the hot-path functions
// (Dot, SqDistance, DistanceLp) operate on raw []float64 without copying,
// and the mutating variants (AddScaled, Scale) work in place so the SGD
// update loops in internal/core do not allocate.
package vector

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vec is a dense real-valued vector. The zero value is an empty vector.
type Vec []float64

// ErrDimensionMismatch is returned (or wrapped) by operations that require
// operands of equal dimension.
var ErrDimensionMismatch = errors.New("vector: dimension mismatch")

// New returns a zero vector of dimension d. It panics if d is negative.
func New(d int) Vec {
	if d < 0 {
		panic("vector: negative dimension")
	}
	return make(Vec, d)
}

// Of returns a vector with the given components.
func Of(values ...float64) Vec {
	v := make(Vec, len(values))
	copy(v, values)
	return v
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	if v == nil {
		return nil
	}
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimension (number of components) of v.
func (v Vec) Dim() int { return len(v) }

// At returns the i-th component.
func (v Vec) At(i int) float64 { return v[i] }

// Set assigns the i-th component.
func (v Vec) Set(i int, x float64) { v[i] = x }

// Equal reports whether v and w have the same dimension and identical
// components.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether v and w have the same dimension and all
// components are within tol of each other.
func (v Vec) ApproxEqual(w Vec, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Copy copies w into v. Both must have the same dimension.
func (v Vec) Copy(w Vec) {
	if len(v) != len(w) {
		panic(dimError("Copy", len(v), len(w)))
	}
	copy(v, w)
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		panic(dimError("Add", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic(dimError("Sub", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// SubInto stores v - w into dst and returns dst. dst may alias v or w.
func (v Vec) SubInto(dst, w Vec) Vec {
	if len(v) != len(w) || len(dst) != len(v) {
		panic(dimError("SubInto", len(v), len(w)))
	}
	for i := range v {
		dst[i] = v[i] - w[i]
	}
	return dst
}

// AddScaled performs the in-place update v += alpha*w. It is the primitive
// behind every SGD update rule in the training algorithms.
func (v Vec) AddScaled(alpha float64, w Vec) {
	if len(v) != len(w) {
		panic(dimError("AddScaled", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies v by alpha in place.
func (v Vec) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Scaled returns alpha*v as a new vector.
func (v Vec) Scaled(alpha float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = alpha * v[i]
	}
	return out
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(dimError("Dot", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v.
func (v Vec) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SqNorm2 returns the squared Euclidean norm of v.
func (v Vec) SqNorm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// NormLp returns the Lp norm of v for p >= 1, or the L-infinity norm when
// p is math.Inf(1).
func (v Vec) NormLp(p float64) float64 {
	switch {
	case math.IsInf(p, 1):
		var m float64
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
		return m
	case p == 1:
		var s float64
		for _, x := range v {
			s += math.Abs(x)
		}
		return s
	case p == 2:
		return v.Norm2()
	case p < 1:
		panic("vector: NormLp requires p >= 1")
	default:
		var s float64
		for _, x := range v {
			s += math.Pow(math.Abs(x), p)
		}
		return math.Pow(s, 1/p)
	}
}

// Sum returns the sum of the components of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of the components of v. It returns 0 for
// the empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Min returns the minimum component of v. It panics on an empty vector.
func (v Vec) Min() float64 {
	if len(v) == 0 {
		panic("vector: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum component of v. It panics on an empty vector.
func (v Vec) Max() float64 {
	if len(v) == 0 {
		panic("vector: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// IsFinite reports whether every component of v is finite (neither NaN nor
// infinite).
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Append returns a new vector holding v followed by tail. Neither operand is
// modified. It is used to assemble query vectors q = [x, θ].
func (v Vec) Append(tail ...float64) Vec {
	out := make(Vec, 0, len(v)+len(tail))
	out = append(out, v...)
	out = append(out, tail...)
	return out
}

// String renders v as "[x1, x2, ...]" with compact float formatting.
func (v Vec) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
	}
	sb.WriteByte(']')
	return sb.String()
}

// Distance returns the L2 distance between v and w.
func Distance(v, w Vec) float64 {
	return math.Sqrt(SqDistance(v, w))
}

// SqDistance returns the squared L2 distance between v and w.
func SqDistance(v, w Vec) float64 {
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
func DistanceLp(v, w Vec, p float64) float64 {
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

// Parse parses a vector from a string of comma- or space-separated floats,
// optionally wrapped in square brackets or parentheses, e.g. "[0.1, 0.2]" or
// "0.1 0.2".
func Parse(s string) (Vec, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, "]")
	s = strings.TrimSuffix(s, ")")
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	if len(fields) == 0 {
		return nil, errors.New("vector: empty input")
	}
	v := make(Vec, 0, len(fields))
	for _, f := range fields {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("vector: parse %q: %w", f, err)
		}
		v = append(v, x)
	}
	return v, nil
}

func dimError(op string, a, b int) error {
	return fmt.Errorf("%w in %s: %d vs %d", ErrDimensionMismatch, op, a, b)
}

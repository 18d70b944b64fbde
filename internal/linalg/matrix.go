// Package linalg provides the dense linear algebra needed by the exact
// regression baseline (REG), the piecewise linear regression baseline (PLR)
// and model diagnostics: a row-major dense matrix type, Cholesky and QR
// factorizations, and an ordinary least squares solver.
//
// The implementations favour clarity and numerical robustness over raw
// speed; the exact baselines are intentionally the "expensive" path that the
// LLM model is compared against.
package linalg

import (
	"errors"
	"fmt"
	"strings"
)

// Errors returned by factorizations and solvers.
var (
	ErrShape         = errors.New("linalg: incompatible matrix shapes")
	ErrNotSPD        = errors.New("linalg: matrix is not symmetric positive definite")
	ErrRankDeficient = errors.New("linalg: rank-deficient system")
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape. It panics if either
// dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// String renders the matrix row by row; intended for debugging and error
// messages, not machine parsing.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Gram computes Aᵀ·A for the design matrix A; it is the normal-equations
// matrix used by the Cholesky-based least squares path.
func Gram(a *Matrix) *Matrix {
	g := NewMatrix(a.cols, a.cols)
	for i := 0; i < a.cols; i++ {
		for j := i; j < a.cols; j++ {
			var s float64
			for k := 0; k < a.rows; k++ {
				s += a.data[k*a.cols+i] * a.data[k*a.cols+j]
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	return g
}

// MulTVec computes Aᵀ·y.
func MulTVec(a *Matrix, y []float64) ([]float64, error) {
	if a.rows != len(y) {
		return nil, fmt.Errorf("%w: A is %dx%d, y has length %d", ErrShape, a.rows, a.cols, len(y))
	}
	out := make([]float64, a.cols)
	for k := 0; k < a.rows; k++ {
		yk := y[k]
		row := a.data[k*a.cols : (k+1)*a.cols]
		for j, v := range row {
			out[j] += v * yk
		}
	}
	return out, nil
}

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
	"math"
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

// NewMatrixFromRows builds a matrix from row slices. All rows must have the
// same length.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range [0,%d)", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: column %d out of range [0,%d)", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d) * (%dx%d)", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			rowB := b.data[k*b.cols : (k+1)*b.cols]
			rowOut := out.data[i*out.cols : (i+1)*out.cols]
			for j := range rowB {
				rowOut[j] += a * rowB[j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d) * vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: (%dx%d) + (%dx%d)", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Scale returns alpha*m as a new matrix.
func (m *Matrix) Scale(alpha float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// ApproxEqual reports whether m and b have the same shape and all elements
// within tol.
func (m *Matrix) ApproxEqual(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
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

package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
	n int
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// It returns ErrNotSPD if the matrix is not (numerically) positive definite.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: Cholesky requires a square matrix, got %dx%d", ErrShape, a.Rows(), a.Cols())
	}
	n := a.Rows()
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		for k := 0; k < j; k++ {
			diag += l.At(j, k) * l.At(j, k)
		}
		d := a.At(j, j) - diag
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d is %g)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, (a.At(i, j)-s)/ljj)
		}
	}
	return &Cholesky{l: l, n: n}, nil
}

// Solve solves A·x = b where A = L·Lᵀ.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: system is %dx%d, rhs has length %d", ErrShape, c.n, c.n, len(b))
	}
	// Forward substitution: L·y = b.
	x := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l.At(i, k) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	// Back substitution: Lᵀ·x = y, in place — x[i] still holds y[i] when
	// row i is solved.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}

// QR holds a Householder QR factorization A = Q·R of an m×n matrix with
// m >= n. It is used for least-squares solves that are more robust than the
// normal equations when the design matrix is ill-conditioned.
type QR struct {
	qr    *Matrix   // packed Householder vectors below the diagonal, R on/above
	rdiag []float64 // diagonal of R
	m, n  int
}

// NewQR factorizes a (m×n, m >= n).
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("%w: QR requires rows >= cols, got %dx%d", ErrShape, m, n)
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Compute the norm of the k-th column below the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			return nil, fmt.Errorf("%w: column %d is zero below the diagonal", ErrRankDeficient, k)
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		// Apply the transformation to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag, m: m, n: n}, nil
}

// Solve returns the least-squares solution x minimizing ||A·x - b||2.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, fmt.Errorf("%w: A has %d rows, b has length %d", ErrShape, q.m, len(b))
	}
	for _, d := range q.rdiag {
		if math.Abs(d) < 1e-14 {
			return nil, ErrRankDeficient
		}
	}
	y := make([]float64, q.m)
	copy(y, b)
	// Apply Householder transformations to b: y = Qᵀ·b.
	for k := 0; k < q.n; k++ {
		var s float64
		for i := k; i < q.m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.qr.At(k, k)
		for i := k; i < q.m; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	// Back substitution: R·x = y[:n].
	x := make([]float64, q.n)
	for i := q.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < q.n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		x[i] = s / q.rdiag[i]
	}
	return x, nil
}

// SolveLeastSquares returns argmin_x ||A·x - b||2. It first attempts the
// fast normal-equations path (Cholesky on AᵀA, with a tiny ridge retried when
// the Gram matrix is numerically semidefinite) and falls back to Householder
// QR when that fails.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("%w: A has %d rows, b has length %d", ErrShape, a.Rows(), len(b))
	}
	if a.Rows() < a.Cols() {
		return nil, fmt.Errorf("%w: underdetermined system %dx%d", ErrRankDeficient, a.Rows(), a.Cols())
	}
	aty, err := MulTVec(a, b)
	if err != nil {
		return nil, err
	}
	return solveNormal(Gram(a), aty, func() (*Matrix, []float64) { return a, b })
}

// solveNormal is SolveLeastSquares given the normal equations g = AᵀA and
// aty = Aᵀb; design supplies A and b themselves, and is called only if both
// Cholesky attempts fail.
func solveNormal(g *Matrix, aty []float64, design func() (*Matrix, []float64)) ([]float64, error) {
	if chol, err := NewCholesky(g); err == nil {
		if x, err := chol.Solve(aty); err == nil && allFinite(x) {
			return x, nil
		}
	}
	// Retry with a small ridge on the diagonal (handles nearly collinear
	// columns, which arise for tiny data subspaces).
	ridge := g.Clone()
	trace := 0.0
	for i := 0; i < g.Rows(); i++ {
		trace += g.At(i, i)
	}
	eps := 1e-10 * (trace/float64(g.Rows()) + 1)
	for i := 0; i < ridge.Rows(); i++ {
		ridge.Set(i, i, ridge.At(i, i)+eps)
	}
	if chol, err := NewCholesky(ridge); err == nil {
		if x, err := chol.Solve(aty); err == nil && allFinite(x) {
			return x, nil
		}
	}
	a, b := design()
	qr, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

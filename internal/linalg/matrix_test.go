package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixAndAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("zero value not zero")
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	cases := []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(5, 0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRowColClone(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Error("Clone must not share storage")
	}
}

func TestGramAndMulTVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := Gram(a)
	want := fromRows([][]float64{{35, 44}, {44, 56}})
	if !approxEqual(g, want, 1e-12) {
		t.Errorf("Gram =\n%v\nwant\n%v", g, want)
	}
	aty, err := MulTVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if aty[0] != 9 || aty[1] != 12 {
		t.Errorf("MulTVec = %v", aty)
	}
	if _, err := MulTVec(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulTVec shape error = %v", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix.
	a := fromRows([][]float64{
		{4, 2, 0},
		{2, 5, 1},
		{0, 1, 3},
	})
	chol, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := mulT(chol.l, chol.l)
	if !approxEqual(llt, a, 1e-10) {
		t.Errorf("L*Lt =\n%v", llt)
	}
	xTrue := []float64{1, -2, 3}
	b := mulVec(a, xTrue)
	x, err := chol.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Errorf("x = %v, want %v", x, xTrue)
			break
		}
	}
	if _, err := chol.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("Solve shape error = %v", err)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	notSPD := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(notSPD); !errors.Is(err, ErrNotSPD) {
		t.Errorf("err = %v, want ErrNotSPD", err)
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square err = %v, want ErrShape", err)
	}
}

func TestQRSolve(t *testing.T) {
	// Overdetermined consistent system.
	a := fromRows([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	xTrue := []float64{2, -1}
	b := mulVec(a, xTrue)
	qr, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := qr.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, xTrue)
		}
	}
	if _, err := NewQR(NewMatrix(1, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("wide matrix err = %v", err)
	}
	if _, err := qr.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("rhs length err = %v", err)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := fromRows([][]float64{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	qr, err := NewQR(a)
	if err == nil {
		// The second column may not be exactly zero below the diagonal due to
		// rounding; in that case Solve must detect the tiny pivot.
		if _, err := qr.Solve([]float64{1, 2, 3}); err == nil {
			t.Error("expected rank-deficiency to be reported")
		}
		return
	}
	if !errors.Is(err, ErrRankDeficient) {
		t.Errorf("err = %v, want ErrRankDeficient", err)
	}
}

func TestSolveLeastSquaresMatchesKnownFit(t *testing.T) {
	// y = 3 + 2*x fitted from noiseless samples.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 3 + 2*x
	}
	coef, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-3) > 1e-9 || math.Abs(coef[1]-2) > 1e-9 {
		t.Errorf("coef = %v", coef)
	}
	if _, err := SolveLeastSquares(NewMatrix(1, 3), []float64{1}); err == nil {
		t.Error("underdetermined system should fail")
	}
	if _, err := SolveLeastSquares(NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("shape error = %v", err)
	}
}

func TestSolveLeastSquaresNearCollinear(t *testing.T) {
	// Two nearly identical columns; the ridge/QR fallback must keep the
	// solution finite and the residual small.
	rng := rand.New(rand.NewSource(3))
	n := 50
	a := NewMatrix(n, 3)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		a.Set(i, 2, x*(1+1e-9)) // nearly collinear with column 1
		b[i] = 1 + 2*x
	}
	coef, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pred := coef[0] + coef[1]*a.At(i, 1) + coef[2]*a.At(i, 2)
		if math.Abs(pred-b[i]) > 1e-4 {
			t.Fatalf("prediction %d off: %v vs %v (coef %v)", i, pred, b[i], coef)
		}
	}
}

// rowMajor copies xs into row-major order and returns it with the identity
// positions, so FitOLSAt reads the rows in order.
func rowMajor(xs [][]float64) ([]float64, []int32) {
	var flat []float64
	pos := make([]int32, len(xs))
	for i, x := range xs {
		flat = append(flat, x...)
		pos[i] = int32(i)
	}
	return flat, pos
}

// fitRows fits the rows of xs in order.
func fitRows(xs [][]float64, us []float64) (*OLSModel, error) {
	flat, pos := rowMajor(xs)
	return FitOLSAt(flat, len(xs[0]), us, pos)
}

func TestFitOLSExactPlane(t *testing.T) {
	// u = 1 + 2*x1 - 3*x2 recovered exactly from noiseless data.
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var us []float64
	for i := 0; i < 40; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{x1, x2})
		us = append(us, 1+2*x1-3*x2)
	}
	m, err := fitRows(xs, us)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-1) > 1e-8 || math.Abs(m.Slope[0]-2) > 1e-8 || math.Abs(m.Slope[1]+3) > 1e-8 {
		t.Errorf("fit = %+v", m)
	}
	if m.R2() < 0.999999 {
		t.Errorf("R2 = %v", m.R2())
	}
	if m.FVU() > 1e-6 {
		t.Errorf("FVU = %v", m.FVU())
	}
	if m.N != 40 {
		t.Errorf("N = %d", m.N)
	}
}

// TestFitOLSErrors feeds FitOLSAt the shapes a caller can get wrong when it
// lays its rows out in row-major order.
func TestFitOLSErrors(t *testing.T) {
	if _, err := fitRows([][]float64{{1, 2}}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := FitOLSAt(nil, 2, nil, nil); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := fitRows([][]float64{{1, 2}, {3, 4}}, []float64{1, 2}); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("too few err = %v", err)
	}
	if _, err := fitRows([][]float64{{1, 2}, {3}, {4, 5}}, []float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged err = %v", err)
	}
}

func TestOLSConstantResponse(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}, {3}}
	us := []float64{5, 5, 5, 5}
	m, err := fitRows(xs, us)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{10})-5) > 1e-9 {
		t.Errorf("prediction = %v", m.Predict([]float64{10}))
	}
	if m.R2() != 1 {
		t.Errorf("R2 for perfectly fitted constant = %v", m.R2())
	}
	if m.FVU() != 0 {
		t.Errorf("FVU = %v", m.FVU())
	}
}

// Property: for random SPD systems, Cholesky solve reproduces the known
// solution.
func TestPropertyCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		// Build SPD as B*Bt + n*I.
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		spd := mulT(b, b)
		for i := 0; i < n; i++ {
			spd.Set(i, i, spd.At(i, i)+float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs := mulVec(spd, xTrue)
		chol, err := NewCholesky(spd)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := chol.Solve(rhs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("trial %d: x=%v want %v", trial, x, xTrue)
			}
		}
	}
}

// Property: OLS residuals are orthogonal to the fitted columns (normal
// equations), checked via quick.
func TestPropertyOLSResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 30, 3
		xs := make([][]float64, n)
		us := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			us[i] = rng.NormFloat64()
		}
		m, err := fitRows(xs, us)
		if err != nil {
			return false
		}
		// Sum of residuals ≈ 0 and residual · column_j ≈ 0.
		var sum float64
		dot := make([]float64, d)
		for i := 0; i < n; i++ {
			r := us[i] - m.Predict(xs[i])
			sum += r
			for j := 0; j < d; j++ {
				dot[j] += r * xs[i][j]
			}
		}
		if math.Abs(sum) > 1e-6 {
			return false
		}
		for j := 0; j < d; j++ {
			if math.Abs(dot[j]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatrixString(t *testing.T) {
	m := fromRows([][]float64{{1, 2}})
	if s := m.String(); s == "" {
		t.Error("String should not be empty")
	}
}

func BenchmarkOLSFit100x5(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, d := 100, 5
	xs := make([][]float64, n)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			xs[i][j] = rng.Float64()
		}
		us[i] = rng.Float64()
	}
	flat, pos := rowMajor(xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitOLSAt(flat, d, us, pos); err != nil {
			b.Fatal(err)
		}
	}
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// mulVec returns a·x.
func mulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		for j, v := range x {
			out[i] += a.At(i, j) * v
		}
	}
	return out
}

// mulT returns a·bᵀ.
func mulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows(), b.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// approxEqual reports whether a and b have the same shape and every element
// within tol.
func approxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

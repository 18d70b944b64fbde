package plr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func grid1D(n int, lo, hi float64, f func(float64) float64) ([][]float64, []float64) {
	xs := make([][]float64, n)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = []float64{x}
		us[i] = f(x)
	}
	return xs, us
}

func TestBasisFunctionEval(t *testing.T) {
	pos := BasisFunction{Var: 0, Knot: 0.5, Positive: true}
	neg := BasisFunction{Var: 0, Knot: 0.5, Positive: false}
	if pos.Eval([]float64{0.7}) != 0.2 && math.Abs(pos.Eval([]float64{0.7})-0.2) > 1e-12 {
		t.Errorf("pos hinge = %v", pos.Eval([]float64{0.7}))
	}
	if pos.Eval([]float64{0.3}) != 0 {
		t.Errorf("pos hinge below knot = %v", pos.Eval([]float64{0.3}))
	}
	if math.Abs(neg.Eval([]float64{0.3})-0.2) > 1e-12 {
		t.Errorf("neg hinge = %v", neg.Eval([]float64{0.3}))
	}
	if neg.Eval([]float64{0.7}) != 0 {
		t.Errorf("neg hinge above knot = %v", neg.Eval([]float64{0.7}))
	}
	two := BasisFunction{Var: 1, Knot: 0, Positive: true}
	if two.Eval([]float64{9, 2}) != 2 {
		t.Error("Var index not honoured")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("length mismatch err = %v", err)
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1, 2}, Options{}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("too few err = %v", err)
	}
	if _, err := Fit([][]float64{{1}, {2}, {3, 4}, {5}}, []float64{1, 2, 3, 4}, Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged err = %v", err)
	}
}

func TestFitLinearFunctionIsExact(t *testing.T) {
	xs, us := grid1D(60, 0, 1, func(x float64) float64 { return 2 + 3*x })
	m, err := Fit(xs, us, Options{MaxBasis: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.FVU() > 1e-6 || m.R2() < 1-1e-6 {
		t.Errorf("linear fit: FVU=%v R2=%v", m.FVU(), m.R2())
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if math.Abs(m.Predict([]float64{x})-(2+3*x)) > 1e-4 {
			t.Errorf("Predict(%v) = %v", x, m.Predict([]float64{x}))
		}
	}
	if m.N != 60 {
		t.Errorf("N = %d", m.N)
	}
}

func TestFitPiecewiseLinearFunction(t *testing.T) {
	// A genuine piecewise-linear target with a kink at 0.5: PLR should nail
	// it while a single global line cannot.
	target := func(x float64) float64 {
		if x < 0.5 {
			return x
		}
		return 0.5 + 4*(x-0.5)
	}
	xs, us := grid1D(120, 0, 1, target)
	m, err := Fit(xs, us, Options{MaxBasis: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.FVU() > 1e-3 {
		t.Errorf("piecewise-linear target: FVU = %v", m.FVU())
	}
	if len(m.Basis) == 0 {
		t.Error("expected at least one hinge to be retained")
	}
	// Check accuracy on both sides of the kink.
	for _, x := range []float64{0.2, 0.8} {
		if math.Abs(m.Predict([]float64{x})-target(x)) > 0.05 {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict([]float64{x}), target(x))
		}
	}
}

func TestFitNonLinearBeatsGlobalLinear(t *testing.T) {
	// Smooth non-linear target: PLR's FVU must be far below the single
	// global line's FVU (the property Figure 9 relies on).
	xs, us := grid1D(200, 0, 1, func(x float64) float64 { return math.Sin(2 * math.Pi * x) })
	m, err := Fit(xs, us, Options{MaxBasis: 12})
	if err != nil {
		t.Fatal(err)
	}
	// A single global line on a full sine period explains almost nothing
	// (FVU near 1); PLR should be below 0.1.
	if m.FVU() > 0.1 {
		t.Errorf("sine target: FVU = %v, want < 0.1", m.FVU())
	}
}

func TestFitMultivariate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	xs := make([][]float64, n)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		xs[i] = []float64{x1, x2}
		us[i] = x1*(x2+1) + 0.01*rng.NormFloat64() // the paper's Example 2 surface
	}
	m, err := Fit(xs, us, Options{MaxBasis: 14})
	if err != nil {
		t.Fatal(err)
	}
	if m.FVU() > 0.2 {
		t.Errorf("saddle target: FVU = %v", m.FVU())
	}
	if m.GCV <= 0 {
		t.Errorf("GCV = %v", m.GCV)
	}
}

func TestMaxBasisCapRespected(t *testing.T) {
	xs, us := grid1D(150, 0, 1, func(x float64) float64 { return math.Sin(4 * math.Pi * x) })
	m, err := Fit(xs, us, Options{MaxBasis: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Basis) > 4 {
		t.Errorf("len(Basis) = %d, cap was 4", len(m.Basis))
	}
	// With a higher cap the fit must not get worse.
	big, err := Fit(xs, us, Options{MaxBasis: 16})
	if err != nil {
		t.Fatal(err)
	}
	if big.FVU() > m.FVU()+1e-9 {
		t.Errorf("larger basis fit got worse: %v vs %v", big.FVU(), m.FVU())
	}
}

func TestConstantResponse(t *testing.T) {
	xs, us := grid1D(30, 0, 1, func(x float64) float64 { return 7 })
	m, err := Fit(xs, us, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{0.3})-7) > 1e-9 {
		t.Errorf("constant prediction = %v", m.Predict([]float64{0.3}))
	}
	if m.FVU() != 0 || m.R2() != 1 {
		t.Errorf("constant response: FVU=%v R2=%v", m.FVU(), m.R2())
	}
	if len(m.Basis) != 0 {
		t.Errorf("constant response should not retain hinges, got %d", len(m.Basis))
	}
}

func TestDuplicateInputs(t *testing.T) {
	// All x identical: no valid knots; the model degenerates to the mean.
	xs := make([][]float64, 10)
	us := make([]float64, 10)
	for i := range xs {
		xs[i] = []float64{0.5}
		us[i] = float64(i)
	}
	m, err := Fit(xs, us, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{0.5})-4.5) > 1e-9 {
		t.Errorf("degenerate prediction = %v", m.Predict([]float64{0.5}))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxBasis != 20 || o.GCVPenalty != 3 || o.MaxCandidateKnots != 16 || o.MinImprovement != 1e-4 {
		t.Errorf("defaults = %+v", o)
	}
	custom := Options{MaxBasis: 5, GCVPenalty: 2, MaxCandidateKnots: 8, MinImprovement: 0.01}.withDefaults()
	if custom.MaxBasis != 5 || custom.GCVPenalty != 2 || custom.MaxCandidateKnots != 8 || custom.MinImprovement != 0.01 {
		t.Errorf("custom options overridden: %+v", custom)
	}
}

func TestCandidateKnots(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}, {5}, {5}, {5}}
	knots := candidateKnots(xs, 0, 10)
	// Interior unique values are 2, 3, 4.
	if len(knots) != 3 || knots[0] != 2 || knots[2] != 4 {
		t.Errorf("knots = %v", knots)
	}
	// Capped.
	var many [][]float64
	for i := 0; i < 100; i++ {
		many = append(many, []float64{float64(i)})
	}
	capped := candidateKnots(many, 0, 8)
	if len(capped) != 8 {
		t.Errorf("capped knots = %d", len(capped))
	}
	// Too few distinct values.
	if got := candidateKnots([][]float64{{1}, {1}, {2}}, 0, 4); got != nil {
		t.Errorf("degenerate knots = %v", got)
	}
}

func TestGCVMonotonicInRSS(t *testing.T) {
	if gcv(1, 100, 4, 3) >= gcv(2, 100, 4, 3) {
		t.Error("GCV must increase with RSS")
	}
	if !math.IsInf(gcv(1, 5, 10, 3), 1) {
		t.Error("GCV must be +Inf when effective parameters exceed n")
	}
}

func BenchmarkFitPLR200x2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	xs := make([][]float64, n)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		xs[i] = []float64{x1, x2}
		us[i] = math.Sin(3*x1) * (x2 + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, us, Options{MaxBasis: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

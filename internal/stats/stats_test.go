package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Fatal("zero value should report a zero mean")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if !close(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v", r.Mean())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(3)
	if r.Mean() != 3 {
		t.Errorf("mean of single sample = %v", r.Mean())
	}
}

func TestMeanVariance(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	// The population variance is TSS over the count.
	tss, err := TSS([]float64{1, 2, 3, 4})
	if err != nil || !close(tss/4, 1.25, 1e-12) {
		t.Errorf("TSS/n = %v, %v", tss/4, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) err = %v", err)
	}
}

func TestRMSEAndMAE(t *testing.T) {
	actual := []float64{1, 2, 3}
	pred := []float64{1, 2, 3}
	if e, _ := RMSE(actual, pred); e != 0 {
		t.Errorf("RMSE perfect = %v", e)
	}
	e, err := RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil || !close(e, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v, %v", e, err)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RMSE length mismatch should error")
	}
	if _, err := RMSE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("RMSE empty err = %v", err)
	}
}

func TestSSRTSSFit(t *testing.T) {
	actual := []float64{1, 2, 3, 4}
	pred := []float64{1.5, 1.5, 3.5, 3.5}
	ssr, err := SSR(actual, pred)
	if err != nil || !close(ssr, 1, 1e-12) {
		t.Errorf("SSR = %v, %v", ssr, err)
	}
	tss, err := TSS(actual)
	if err != nil || !close(tss, 5, 1e-12) {
		t.Errorf("TSS = %v, %v", tss, err)
	}
	g, err := Fit(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	if !close(g.FVU, 0.2, 1e-12) || !close(g.CoD, 0.8, 1e-12) || g.N != 4 {
		t.Errorf("Fit = %+v", g)
	}
	if _, err := SSR([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("SSR length mismatch should error")
	}
	if _, err := TSS(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("TSS empty err = %v", err)
	}
	if _, err := Fit(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Fit empty err = %v", err)
	}
	if _, err := Fit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Fit length mismatch should error")
	}
}

func TestFitConstantResponse(t *testing.T) {
	g, err := Fit([]float64{2, 2, 2}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.FVU != 0 || g.CoD != 1 {
		t.Errorf("perfect constant fit = %+v", g)
	}
	g, err = Fit([]float64{2, 2, 2}, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(g.FVU, 1) || !math.IsInf(g.CoD, -1) {
		t.Errorf("bad constant fit = %+v", g)
	}
}

func TestFitWorseThanMeanGivesFVUAboveOne(t *testing.T) {
	// Predictions anti-correlated with the actual values: FVU > 1, CoD < 0,
	// matching the paper's interpretation of a bad fit.
	actual := []float64{0, 1, 2, 3}
	pred := []float64{3, 2, 1, 0}
	g, err := Fit(actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	if g.FVU <= 1 {
		t.Errorf("FVU = %v, want > 1", g.FVU)
	}
	if g.CoD >= 0 {
		t.Errorf("CoD = %v, want < 0", g.CoD)
	}
}

// Property: the Running mean agrees with the batch formula.
func TestPropertyRunningMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Clamp to a sane range to avoid overflow-driven false negatives.
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		bm, _ := Mean(xs)
		return close(r.Mean(), bm, 1e-6*(1+math.Abs(bm)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RMSE is symmetric in its two arguments. Inputs are clamped so
// squared differences cannot overflow.
func TestPropertyRMSESymmetry(t *testing.T) {
	clampAll := func(in [6]float64) []float64 {
		out := make([]float64, len(in))
		for i, x := range in {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			out[i] = math.Mod(x, 1e6)
		}
		return out
	}
	f := func(a, b [6]float64) bool {
		x, y := clampAll(a), clampAll(b)
		e1, err1 := RMSE(x, y)
		e2, err2 := RMSE(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return close(e1, e2, 1e-9*(1+e1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: CoD = 1 - FVU whenever TSS > 0.
func TestPropertyCoDComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		n := 3 + rng.Intn(20)
		actual := make([]float64, n)
		pred := make([]float64, n)
		for j := range actual {
			actual[j] = rng.NormFloat64()
			pred[j] = rng.NormFloat64()
		}
		g, err := Fit(actual, pred)
		if err != nil {
			t.Fatal(err)
		}
		if !close(g.CoD, 1-g.FVU, 1e-12) {
			t.Fatalf("CoD %v != 1-FVU %v", g.CoD, 1-g.FVU)
		}
	}
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(float64(i % 1000))
	}
}

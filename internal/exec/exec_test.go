package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/linalg"
	"llmq/internal/synth"
)

// loadTable creates a catalog table from a synthetic dataset built on a known
// data function.
func loadTable(t testing.TB, n, dim int, fn synth.DataFunc, noise float64, seed int64) (*engine.Table, *dataset.Dataset) {
	t.Helper()
	pts, err := synth.Generate(synth.Config{
		Name: "t", N: n, Dim: dim, Lo: 0, Hi: 1, Func: fn, NoiseStdDev: noise, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPoints("t", pts.Xs, pts.Us)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	tab, err := cat.LoadDataset("t", ds)
	if err != nil {
		t.Fatal(err)
	}
	return tab, ds
}

func TestNewExecutorValidation(t *testing.T) {
	tab, _ := loadTable(t, 100, 2, synth.Paraboloid, 0, 1)
	if _, err := NewExecutorWithGrid(tab, nil, "u", 0.1); !errors.Is(err, ErrNoInputs) {
		t.Errorf("no inputs err = %v", err)
	}
	if _, err := NewExecutorWithGrid(tab, []string{"zz"}, "u", 0.1); err == nil {
		t.Error("unknown input column accepted")
	}
	if _, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "zz", 0.1); err == nil {
		t.Error("unknown output column accepted")
	}
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", e.Dim())
	}
	if _, err := NewExecutor([]float64{1, 2}, []float64{3}, nil, "u", 0.1); !errors.Is(err, ErrNoInputs) {
		t.Errorf("d = 0 err = %v", err)
	}
	if in, out := e.Columns(); !slices.Equal(in, []string{"x1", "x2"}) || out != "u" {
		t.Errorf("Columns = %v, %q, want [x1 x2], \"u\"", in, out)
	}
	for _, c := range []struct{ x, u []float64 }{{nil, nil}, {[]float64{1, 2, 3}, []float64{4}}, {[]float64{1, 2}, []float64{3, 4}}} {
		if _, err := NewExecutor(c.x, c.u, []string{"x1", "x2"}, "u", 0.1); err == nil {
			t.Errorf("%d inputs and %d outputs at d = 2 accepted", len(c.x), len(c.u))
		}
	}
}

func TestMeanMatchesBruteForce(t *testing.T) {
	tab, ds := loadTable(t, 2000, 2, synth.SensorSurrogate, 0.01, 2)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		q := RadiusQuery{Center: []float64{rng.Float64(), rng.Float64()}, Theta: 0.15 + 0.1*rng.Float64()}
		res, err := e.MeanCtx(context.Background(), q)
		if err != nil {
			if errors.Is(err, ErrEmptySubspace) {
				continue
			}
			t.Fatal(err)
		}
		// Brute force.
		var sum float64
		var count int
		for i := range ds.Xs {
			dx := ds.Xs[i][0] - q.Center[0]
			dy := ds.Xs[i][1] - q.Center[1]
			if math.Sqrt(dx*dx+dy*dy) <= q.Theta {
				sum += ds.Us[i]
				count++
			}
		}
		if count != res.Count {
			t.Fatalf("trial %d: count %d vs brute force %d", trial, res.Count, count)
		}
		if math.Abs(res.Mean-sum/float64(count)) > 1e-10 {
			t.Fatalf("trial %d: mean %v vs brute force %v", trial, res.Mean, sum/float64(count))
		}
		if res.Elapsed < 0 {
			t.Error("elapsed must be non-negative")
		}
	}
}

func TestMeanEmptySubspace(t *testing.T) {
	tab, _ := loadTable(t, 100, 2, synth.Paraboloid, 0, 4)
	e, _ := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	_, err := e.MeanCtx(context.Background(), RadiusQuery{Center: []float64{50, 50}, Theta: 0.1})
	if !errors.Is(err, ErrEmptySubspace) {
		t.Errorf("err = %v, want ErrEmptySubspace", err)
	}
	_, err = e.RegressionCtx(context.Background(), RadiusQuery{Center: []float64{50, 50}, Theta: 0.1})
	if !errors.Is(err, ErrEmptySubspace) {
		t.Errorf("regression err = %v, want ErrEmptySubspace", err)
	}
	if _, _, err := e.SubspaceValues(RadiusQuery{Center: []float64{50, 50}, Theta: 0.1}); !errors.Is(err, ErrEmptySubspace) {
		t.Errorf("subspace err = %v", err)
	}
}

func TestRegressionRecoversLinearFunction(t *testing.T) {
	// For a perfectly linear data function, REG must recover the plane and
	// report FVU ~ 0, CoD ~ 1.
	plane := synth.Plane(0.5, []float64{2, -1})
	tab, _ := loadTable(t, 3000, 2, plane, 0, 5)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RegressionCtx(context.Background(), RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Intercept-0.5) > 1e-6 || math.Abs(res.Slope[0]-2) > 1e-6 || math.Abs(res.Slope[1]+1) > 1e-6 {
		t.Errorf("coefficients = %v, %v", res.Intercept, res.Slope)
	}
	if res.FVU > 1e-9 || res.CoD < 1-1e-9 {
		t.Errorf("FVU=%v CoD=%v", res.FVU, res.CoD)
	}
	if res.Predict([]float64{1, 1}) != res.Intercept+res.Slope[0]+res.Slope[1] {
		t.Error("Predict inconsistent with coefficients")
	}
}

func TestRegressionOnNonLinearDataHasHighFVU(t *testing.T) {
	// Over a wide subspace of a strongly non-linear function the global
	// linear fit should leave substantial unexplained variance.
	tab, _ := loadTable(t, 5000, 2, synth.SensorSurrogate, 0, 6)
	e, _ := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	res, err := e.RegressionCtx(context.Background(), RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if res.FVU < 0.05 {
		t.Errorf("expected a poor global fit over a non-linear subspace, FVU = %v", res.FVU)
	}
}

// TestGridExecutorAgreesWithLinear checks the grid executor's means at d = 3
// against a brute-force linear scan of the dataset.
func TestGridExecutorAgreesWithLinear(t *testing.T) {
	tab, ds := loadTable(t, 3000, 3, synth.SensorSurrogate, 0, 8)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2", "x3"}, "u", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		q := RadiusQuery{
			Center: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
			Theta:  0.1 + 0.1*rng.Float64(),
		}
		var sum float64
		var count int
		for i, x := range ds.Xs {
			dx, dy, dz := x[0]-q.Center[0], x[1]-q.Center[1], x[2]-q.Center[2]
			if math.Sqrt(dx*dx+dy*dy+dz*dz) <= q.Theta {
				sum += ds.Us[i]
				count++
			}
		}
		res, err := e.MeanCtx(context.Background(), q)
		if count == 0 {
			if !errors.Is(err, ErrEmptySubspace) {
				t.Fatalf("trial %d: brute force selects nothing, grid err = %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != count || math.Abs(res.Mean-sum/float64(count)) > 1e-10 {
			t.Fatalf("trial %d: grid (%d, %v) vs brute force (%d, %v)", trial, res.Count, res.Mean, count, sum/float64(count))
		}
	}
}

// TestGlobalRegressionIsTheRowOrderFit pins GlobalRegression to one OLS fit
// over the whole dataset in row order, to the bit.
func TestGlobalRegressionIsTheRowOrderFit(t *testing.T) {
	for _, dim := range []int{2, 5} {
		tab, ds := loadTable(t, 3000, dim, synth.SensorSurrogate, 0.05, int64(40+dim))
		e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.GlobalRegression()
		if err != nil {
			t.Fatal(err)
		}
		// A row-major copy of the dataset, read in row order.
		flat := make([]float64, 0, len(ds.Xs)*dim)
		pos := make([]int32, len(ds.Xs))
		for i, x := range ds.Xs {
			flat = append(flat, x...)
			pos[i] = int32(i)
		}
		model, err := linalg.FitOLSAt(flat, dim, ds.Us, pos)
		if err != nil {
			t.Fatal(err)
		}
		want := RegressionResult{Intercept: model.Intercept, Slope: model.Slope, Count: len(ds.Us), FVU: model.FVU(), CoD: model.R2()}
		if !sameRegression(got, want) {
			t.Errorf("d=%d: GlobalRegression %+v, the row-order fit %+v", dim, got, want)
		}
	}
}

func TestSelectWithDifferentNorms(t *testing.T) {
	tab, _ := loadTable(t, 1000, 2, synth.Paraboloid, 0, 10)
	e, _ := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	center := []float64{0.5, 0.5}
	l2, err := e.Select(RadiusQuery{Center: center, Theta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := e.Select(RadiusQuery{Center: center, Theta: 0.2, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	linf, err := e.Select(RadiusQuery{Center: center, Theta: 0.2, P: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	// L1 ball ⊆ L2 ball ⊆ L∞ ball for the same radius.
	if !(len(l1) <= len(l2) && len(l2) <= len(linf)) {
		t.Errorf("norm ball containment violated: |L1|=%d |L2|=%d |Linf|=%d", len(l1), len(l2), len(linf))
	}
}

func TestRegressionErrorOnTinySubspace(t *testing.T) {
	// A subspace with fewer points than coefficients must surface an error,
	// not a bogus fit.
	tab, _ := loadTable(t, 3, 2, synth.Paraboloid, 0, 11)
	e, _ := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	// Radius large enough to select exactly the 3 points is fine (3 = d+1);
	// shrink until fewer than 3 are selected to trigger the error.
	_, err := e.RegressionCtx(context.Background(), RadiusQuery{Center: []float64{0, 0}, Theta: 1e-9})
	if err == nil {
		t.Error("expected an error for an under-determined regression")
	}
}

func BenchmarkExactMean10k(b *testing.B) {
	tab, _ := loadTable(b, 10000, 2, synth.SensorSurrogate, 0.01, 12)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	q := RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.MeanCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactRegression10k(b *testing.B) {
	tab, _ := loadTable(b, 10000, 2, synth.SensorSurrogate, 0.01, 13)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	q := RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RegressionCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

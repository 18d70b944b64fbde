package workload

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/synth"
)

// newHarness builds a harness over a synthetic dataset.
func newHarness(t testing.TB, n, dim int, fn synth.DataFunc, thetaMean float64, seed int64) *Harness {
	t.Helper()
	pts, err := synth.Generate(synth.Config{Name: "w", N: n, Dim: dim, Lo: 0, Hi: 1, Func: fn, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPoints("w", pts.Xs, pts.Us)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	tab, err := cat.LoadDataset("w", ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, thetaMean)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GenConfig{Dim: dim, CenterLo: 0, CenterHi: 1, ThetaMean: thetaMean, ThetaStdDev: thetaMean / 4, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(e, g)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGenConfigValidate(t *testing.T) {
	valid := GenConfig{Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1, ThetaStdDev: 0.01}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []GenConfig{
		{Dim: 0, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1},
		{Dim: 2, CenterLo: 1, CenterHi: 1, ThetaMean: 0.1},
		{Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0},
		{Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1, ThetaStdDev: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewGenerator(bad[0]); err == nil {
		t.Error("NewGenerator accepted invalid config")
	}
}

func TestGeneratorDeterministicAndInRange(t *testing.T) {
	cfg := GenConfig{Dim: 3, CenterLo: -1, CenterHi: 1, ThetaMean: 0.2, ThetaStdDev: 0.05, Seed: 7}
	g1, _ := NewGenerator(cfg)
	g2, _ := NewGenerator(cfg)
	for i := 0; i < 500; i++ {
		a, b := g1.Next(), g2.Next()
		if !slices.Equal(a.Center, b.Center) || a.Theta != b.Theta {
			t.Fatal("generator is not deterministic")
		}
		for _, v := range a.Center {
			if v < -1 || v > 1 {
				t.Fatalf("centre out of range: %v", a.Center)
			}
		}
		if a.Theta <= 0 {
			t.Fatalf("non-positive radius: %v", a.Theta)
		}
	}
	qs := g1.Queries(10)
	if len(qs) != 10 {
		t.Errorf("Queries(10) returned %d", len(qs))
	}
	if g1.Config().Dim != 3 {
		t.Error("Config accessor broken")
	}
}

func TestGeneratorTruncatesNegativeRadii(t *testing.T) {
	// Huge σθ relative to µθ forces the truncation path.
	g, _ := NewGenerator(GenConfig{Dim: 1, CenterLo: 0, CenterHi: 1, ThetaMean: 0.01, ThetaStdDev: 10, Seed: 3})
	for i := 0; i < 1000; i++ {
		if q := g.Next(); q.Theta <= 0 {
			t.Fatalf("generated non-positive θ = %v", q.Theta)
		}
	}
}

func TestNewHarnessValidation(t *testing.T) {
	h := newHarness(t, 500, 2, synth.Paraboloid, 0.2, 1)
	if _, err := NewHarness(nil, h.Gen); err == nil {
		t.Error("nil executor accepted")
	}
	if _, err := NewHarness(h.Exec, nil); err == nil {
		t.Error("nil generator accepted")
	}
	wrongDim, _ := NewGenerator(GenConfig{Dim: 5, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1})
	if _, err := NewHarness(h.Exec, wrongDim); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestTrainingPairsMatchExactExecution(t *testing.T) {
	h := newHarness(t, 2000, 2, synth.SensorSurrogate, 0.2, 2)
	pairs, err := h.TrainingPairs(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i, p := range pairs[:10] {
		res, err := h.Exec.MeanCtx(context.Background(), exec.RadiusQuery{Center: p.Query.Center, Theta: p.Query.Theta})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Mean-p.Answer) > 1e-12 {
			t.Fatalf("pair %d: answer %v, exact %v", i, p.Answer, res.Mean)
		}
	}
}

func TestTrainingPairsSkipsEmptySubspaces(t *testing.T) {
	// Tiny radius over sparse data: many queries select nothing; the harness
	// must still deliver usable pairs (or a clear error if none exist).
	h := newHarness(t, 50, 2, synth.Paraboloid, 0.02, 3)
	pairs, err := h.TrainingPairs(20)
	if err != nil && !errors.Is(err, ErrNoUsableQueries) {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if math.IsNaN(p.Answer) {
			t.Fatal("NaN answer in training pairs")
		}
	}
}

// TestDriftingGenerator covers the non-stationary source: validation,
// determinism, window containment and actual movement of the window.
func TestDriftingGenerator(t *testing.T) {
	base := GenConfig{Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1, ThetaStdDev: 0.02, Seed: 5}
	if _, err := NewDriftingGenerator(base, DriftConfig{Window: 0, Velocity: 1e-3}); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := NewDriftingGenerator(base, DriftConfig{Window: 0.2, Velocity: 0}); err == nil {
		t.Error("zero velocity should fail")
	}
	drift := DriftConfig{Window: 0.2, Velocity: 1e-3}
	g1, err := NewDriftingGenerator(base, drift)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewDriftingGenerator(base, drift)
	first := g1.Queries(300)
	again := g2.Queries(300)
	var minC, maxC = math.Inf(1), math.Inf(-1)
	for i, q := range first {
		if !slices.Equal(q.Center, again[i].Center) || q.Theta != again[i].Theta {
			t.Fatalf("query %d not deterministic", i)
		}
		if q.Theta <= 0 {
			t.Fatalf("query %d has non-positive radius %v", i, q.Theta)
		}
		for _, v := range q.Center {
			minC = math.Min(minC, v)
			maxC = math.Max(maxC, v)
		}
	}
	if minC < 0 || maxC > 1 {
		t.Fatalf("centres escaped the box: [%v, %v]", minC, maxC)
	}
	// After 1/Velocity queries the window must have crossed the space:
	// late-stream centres concentrate far from the early window.
	late := g1.Queries(1000)[699:]
	for i, q := range late {
		if q.Center[0] < 0.3 {
			t.Fatalf("late query %d still in the early window (x=%v): the window is not moving", i, q.Center[0])
		}
	}
	if p := g1.Position(); p < 0 || p > 0.8 {
		t.Fatalf("Position out of range: %v", p)
	}
}

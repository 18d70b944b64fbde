package workload

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/plr"
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

func TestTrainModelEndToEnd(t *testing.T) {
	h := newHarness(t, 4000, 2, synth.SensorSurrogate, 0.2, 4)
	m, res, pairs, err := h.TrainModel(core.DefaultConfig(2), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() == 0 || res.Steps == 0 || len(pairs) == 0 {
		t.Fatalf("training produced K=%d steps=%d pairs=%d", m.K(), res.Steps, len(pairs))
	}
	// Q1 evaluation on unseen queries.
	eval, err := h.EvaluateQ1(m, h.Gen.Queries(300))
	if err != nil {
		t.Fatal(err)
	}
	if eval.N == 0 {
		t.Fatal("no queries evaluated")
	}
	if eval.RMSE <= 0 || math.IsNaN(eval.RMSE) {
		t.Errorf("RMSE = %v", eval.RMSE)
	}
	if eval.ModelTime <= 0 || eval.ExactTime <= 0 {
		t.Errorf("timings = %v / %v", eval.ModelTime, eval.ExactTime)
	}
	// The model answers queries orders of magnitude faster than exact
	// execution on any non-trivial dataset; require at least "not slower".
	if eval.ModelTime > eval.ExactTime {
		t.Errorf("model (%v) slower than exact execution (%v)", eval.ModelTime, eval.ExactTime)
	}
}

func TestEvaluateQ1AccuracyBeatsGlobalMean(t *testing.T) {
	h := newHarness(t, 6000, 2, synth.SensorSurrogate, 0.15, 5)
	m, _, pairs, err := h.TrainModel(core.DefaultConfig(2), 4000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := h.EvaluateQ1(m, h.Gen.Queries(400))
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: predicting the global mean answer for every query.
	var mean float64
	for _, p := range pairs {
		mean += p.Answer
	}
	mean /= float64(len(pairs))
	var se float64
	var n int
	for _, q := range h.Gen.Queries(400) {
		res, err := h.Exec.MeanCtx(context.Background(), exec.RadiusQuery{Center: q.Center, Theta: q.Theta})
		if err != nil {
			continue
		}
		se += (mean - res.Mean) * (mean - res.Mean)
		n++
	}
	baseline := math.Sqrt(se / float64(n))
	if eval.RMSE >= baseline {
		t.Errorf("LLM RMSE %v should beat the global-mean baseline %v", eval.RMSE, baseline)
	}
}

func TestEvaluateQ2ShapesMatchPaper(t *testing.T) {
	// The Figure 9/10 shape: over a non-linear data function,
	// FVU(PLR) <= FVU(REGLocal) <= FVU(LLM) < FVU(REG-global), with the LLM
	// achieving FVU < 1 (a usable fit) while the global linear model does
	// not explain the subspaces (FVU at or above ~1).
	h := newHarness(t, 8000, 2, synth.SensorSurrogate, 0.15, 6)
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.08
	m, _, _, err := h.TrainModel(cfg, 6000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := h.EvaluateQ2(m, h.Gen.Queries(60), Q2Options{PLR: plr.Options{MaxBasis: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if eval.N == 0 {
		t.Fatal("no queries evaluated")
	}
	if eval.LLMFVU >= 1 {
		t.Errorf("FVU: LLM %v should be below 1", eval.LLMFVU)
	}
	if eval.LLMFVU >= eval.REGFVU {
		t.Errorf("FVU: LLM %v should be below global REG %v", eval.LLMFVU, eval.REGFVU)
	}
	if eval.PLRFVU > eval.REGFVU {
		t.Errorf("FVU: PLR %v should not exceed global REG %v", eval.PLRFVU, eval.REGFVU)
	}
	if eval.REGLocalFVU > eval.REGFVU {
		t.Errorf("FVU: per-subspace OLS %v should not exceed the global fit %v", eval.REGLocalFVU, eval.REGFVU)
	}
	if eval.LLMCoD <= eval.REGCoD {
		t.Errorf("CoD: LLM %v should exceed global REG %v", eval.LLMCoD, eval.REGCoD)
	}
	if eval.MeanModels < 1 {
		t.Errorf("mean |S| = %v", eval.MeanModels)
	}
	if eval.LLMTime <= 0 || eval.REGTime <= 0 || eval.PLRTime <= 0 {
		t.Errorf("timings: %v %v %v", eval.LLMTime, eval.REGTime, eval.PLRTime)
	}
	// The LLM path must be faster than PLR (which refits on every query).
	if eval.LLMTime > eval.PLRTime {
		t.Errorf("LLM time %v should be below PLR time %v", eval.LLMTime, eval.PLRTime)
	}
}

func TestEvaluateQ2SkipPLR(t *testing.T) {
	h := newHarness(t, 2000, 2, synth.SensorSurrogate, 0.25, 7)
	m, _, _, err := h.TrainModel(core.DefaultConfig(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := h.EvaluateQ2(m, h.Gen.Queries(30), Q2Options{SkipPLR: true})
	if err != nil {
		t.Fatal(err)
	}
	if eval.PLRTime != 0 || eval.PLRFVU != 0 {
		t.Errorf("PLR should be skipped: %+v", eval)
	}
	if eval.N == 0 || eval.LLMFVU == 0 {
		t.Errorf("LLM/REG must still be evaluated: %+v", eval)
	}
}

func TestEvaluateDataValue(t *testing.T) {
	h := newHarness(t, 5000, 2, synth.SensorSurrogate, 0.25, 8)
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.1
	m, _, _, err := h.TrainModel(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := h.EvaluateDataValue(m, h.Gen.Queries(40), Q2Options{PLR: plr.Options{MaxBasis: 8}}, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if eval.N == 0 {
		t.Fatal("no points evaluated")
	}
	for name, v := range map[string]float64{"LLM": eval.LLMRMSE, "REG": eval.REGRMSE, "PLR": eval.PLRRMSE} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s RMSE = %v", name, v)
		}
	}
	// PLR has full data access and the most flexible model; it must not be
	// drastically worse than REG (sanity check of the baseline wiring).
	if eval.PLRRMSE > eval.REGRMSE*2 {
		t.Errorf("PLR RMSE %v suspiciously worse than REG %v", eval.PLRRMSE, eval.REGRMSE)
	}
}

func TestEvaluateErrorsWithUnusableQueries(t *testing.T) {
	h := newHarness(t, 200, 2, synth.Paraboloid, 0.2, 9)
	m, _, _, err := h.TrainModel(core.DefaultConfig(2), 300)
	if err != nil {
		t.Fatal(err)
	}
	// Queries far outside the data range never select tuples.
	far := []core.Query{{Center: []float64{50.0, 50.0}, Theta: 0.1}}
	if _, err := h.EvaluateQ1(m, far); !errors.Is(err, ErrNoUsableQueries) {
		t.Errorf("EvaluateQ1 err = %v", err)
	}
	if _, err := h.EvaluateQ2(m, far, Q2Options{SkipPLR: true}); !errors.Is(err, ErrNoUsableQueries) {
		t.Errorf("EvaluateQ2 err = %v", err)
	}
	if _, err := h.EvaluateDataValue(m, far, Q2Options{SkipPLR: true}, 3, 1); !errors.Is(err, ErrNoUsableQueries) {
		t.Errorf("EvaluateDataValue err = %v", err)
	}
}

func TestPredictWithLocals(t *testing.T) {
	a := core.LocalLinear{Intercept: 1, Slope: []float64{0}, Weight: 0.25}
	b := core.LocalLinear{Intercept: 3, Slope: []float64{0}, Weight: 0.75}
	got := predictWithLocals([]core.LocalLinear{a, b}, []float64{0})
	if math.Abs(got-2.5) > 1e-12 {
		t.Errorf("weighted fusion = %v", got)
	}
	// Extrapolated single model (weight 0).
	ex := core.LocalLinear{Intercept: 7, Slope: []float64{2}, Weight: 0}
	if got := predictWithLocals([]core.LocalLinear{ex}, []float64{1}); got != 9 {
		t.Errorf("extrapolated = %v", got)
	}
	// All-zero weights with several models: plain average.
	z1 := core.LocalLinear{Intercept: 2, Slope: []float64{0}}
	z2 := core.LocalLinear{Intercept: 4, Slope: []float64{0}}
	if got := predictWithLocals([]core.LocalLinear{z1, z2}, []float64{0}); got != 3 {
		t.Errorf("zero-weight average = %v", got)
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

// TestCappedTrainingTracksDrift is the end-to-end streaming scenario: a
// bounded model trained on a drifting workload stays at its capacity and
// remains accurate on the stream's current region, while its unbounded twin
// grows without bound — the trade bounded-capacity training buys.
func TestCappedTrainingTracksDrift(t *testing.T) {
	const dim = 2
	h := newHarness(t, 4000, dim, synth.Rosenbrock, 0.12, 3)
	gen, err := NewDriftingGenerator(GenConfig{
		Dim: dim, CenterLo: 0, CenterHi: 1, ThetaMean: 0.12, ThetaStdDev: 0.02, Seed: 9,
	}, DriftConfig{Window: 0.3, Velocity: 4e-4})
	if err != nil {
		t.Fatal(err)
	}
	h.Gen = gen

	cfg := core.DefaultConfig(dim)
	cfg.Vigilance = 0.05
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	capped := cfg
	capped.MaxPrototypes = 60
	mCapped, err := core.NewModel(capped)
	if err != nil {
		t.Fatal(err)
	}
	mFree, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := h.TrainingPairs(3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if _, err := mCapped.Observe(p.Query, p.Answer); err != nil {
			t.Fatal(err)
		}
		if _, err := mFree.Observe(p.Query, p.Answer); err != nil {
			t.Fatal(err)
		}
	}
	if mCapped.K() > 60 {
		t.Fatalf("capped model exceeded capacity: K=%d", mCapped.K())
	}
	if mFree.K() <= 60 {
		t.Fatalf("unbounded twin did not outgrow the cap (K=%d): drift too weak to test anything", mFree.K())
	}
	// Accuracy on the stream's CURRENT window: the capped model must remain
	// useful there (its budget is concentrated on the live region).
	eval, err := h.EvaluateQ1(mCapped, h.Gen.Queries(200))
	if err != nil {
		t.Fatal(err)
	}
	if eval.RMSE > 60 {
		// Rosenbrock over [0,1]² spans ~0..100; a tracking model sits far
		// below this blunt bound, an untrained or lost one does not.
		t.Fatalf("capped model lost the drifting stream: RMSE=%v over %d queries", eval.RMSE, eval.N)
	}
}

package experiments

import (
	"context"
	"errors"
	"math"
	"testing"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/experiments/internal/plr"
	"llmq/internal/synth"
	"llmq/internal/workload"
)

// newHarness builds a harness over a synthetic dataset.
func newHarness(t testing.TB, n, dim int, fn synth.DataFunc, thetaMean float64, seed int64) *workload.Harness {
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
	g, err := workload.NewGenerator(workload.GenConfig{Dim: dim, CenterLo: 0, CenterHi: 1, ThetaMean: thetaMean, ThetaStdDev: thetaMean / 4, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.NewHarness(e, g)
	if err != nil {
		t.Fatal(err)
	}
	return h
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
	eval, err := EvaluateQ1(h, m, h.Gen.Queries(300))
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
	eval, err := EvaluateQ1(h, m, h.Gen.Queries(400))
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
	eval, err := EvaluateQ2(h, m, h.Gen.Queries(60), Q2Options{PLR: plr.Options{MaxBasis: 10}})
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
	eval, err := EvaluateQ2(h, m, h.Gen.Queries(30), Q2Options{SkipPLR: true})
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
	eval, err := EvaluateDataValue(h, m, h.Gen.Queries(40), Q2Options{PLR: plr.Options{MaxBasis: 8}}, 5, 99)
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
	if _, err := EvaluateQ1(h, m, far); !errors.Is(err, workload.ErrNoUsableQueries) {
		t.Errorf("EvaluateQ1 err = %v", err)
	}
	if _, err := EvaluateQ2(h, m, far, Q2Options{SkipPLR: true}); !errors.Is(err, workload.ErrNoUsableQueries) {
		t.Errorf("EvaluateQ2 err = %v", err)
	}
	if _, err := EvaluateDataValue(h, m, far, Q2Options{SkipPLR: true}, 3, 1); !errors.Is(err, workload.ErrNoUsableQueries) {
		t.Errorf("EvaluateDataValue err = %v", err)
	}
}

// TestCappedTrainingTracksDrift is the end-to-end streaming scenario: a
// bounded model trained on a drifting workload stays at its capacity and
// remains accurate on the stream's current region, while its unbounded twin
// grows without bound — the trade bounded-capacity training buys.
func TestCappedTrainingTracksDrift(t *testing.T) {
	const dim = 2
	h := newHarness(t, 4000, dim, synth.Rosenbrock, 0.12, 3)
	gen, err := workload.NewDriftingGenerator(workload.GenConfig{
		Dim: dim, CenterLo: 0, CenterHi: 1, ThetaMean: 0.12, ThetaStdDev: 0.02, Seed: 9,
	}, workload.DriftConfig{Window: 0.3, Velocity: 4e-4})
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
	eval, err := EvaluateQ1(h, mCapped, h.Gen.Queries(200))
	if err != nil {
		t.Fatal(err)
	}
	if eval.RMSE > 60 {
		// Rosenbrock over [0,1]² spans ~0..100; a tracking model sits far
		// below this blunt bound, an untrained or lost one does not.
		t.Fatalf("capped model lost the drifting stream: RMSE=%v over %d queries", eval.RMSE, eval.N)
	}
}

func TestGoodnessOverSubspace(t *testing.T) {
	plane := synth.Plane(1, []float64{3})
	e := newHarness(t, 500, 1, plane, 0.1, 7).Exec
	q := exec.RadiusQuery{Center: []float64{0.5}, Theta: 0.4}
	// Perfect predictor.
	g, err := GoodnessOverSubspace(e, q, func(x []float64) float64 { return 1 + 3*x[0] })
	if err != nil {
		t.Fatal(err)
	}
	if g.FVU > 1e-12 || g.CoD < 1-1e-12 {
		t.Errorf("perfect predictor: %+v", g)
	}
	// Constant predictor explains nothing: FVU ~ 1.
	g, err = GoodnessOverSubspace(e, q, func(x []float64) float64 { return 2.5 })
	if err != nil {
		t.Fatal(err)
	}
	if g.FVU < 0.5 {
		t.Errorf("constant predictor should have high FVU, got %+v", g)
	}
	if _, err := GoodnessOverSubspace(e, exec.RadiusQuery{Center: []float64{99}, Theta: 0.01}, func([]float64) float64 { return 0 }); !errors.Is(err, exec.ErrEmptySubspace) {
		t.Errorf("empty subspace err = %v", err)
	}
}

func BenchmarkQ2PLRBaseline20k(b *testing.B) {
	// The relation, model and query of the root package's Q1/Q2
	// micro-benchmarks, so the timings compare.
	env, err := NewEnv(R1, 2, 20000, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := env.TrainDefault(0.25, 1500); err != nil {
		b.Fatal(err)
	}
	q := env.Harness.Gen.Queries(1)[0]
	rq := exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
	xs, us, err := env.Harness.Exec.SubspaceValues(rq)
	if err != nil {
		b.Skip("query subspace empty; skipping PLR micro-benchmark")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plr.Fit(xs, us, plr.Options{MaxBasis: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"llmq/internal/wal"
)

// planeStream generates training pairs whose answers come from a linear
// regression function of the query: y = b0 + bx·x + bθ·θ. An LLM model must
// learn this exactly (a single linear mapping suffices).
func planeStream(n, dim int, b0 float64, bx []float64, btheta float64, seed int64) []TrainingPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]TrainingPair, n)
	for i := 0; i < n; i++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = rng.Float64()
		}
		theta := 0.05 + 0.1*rng.Float64()
		y := b0 + btheta*theta
		for j := range center {
			y += bx[j] * center[j]
		}
		pairs[i] = TrainingPair{Query: Query{Center: center, Theta: theta}, Answer: y}
	}
	return pairs
}

// surfaceStream generates training pairs from an arbitrary answer surface
// y = f(x, θ).
func surfaceStream(n, dim int, f func(x []float64, theta float64) float64, seed int64) []TrainingPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]TrainingPair, n)
	for i := 0; i < n; i++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = rng.Float64()
		}
		theta := 0.05 + 0.1*rng.Float64()
		pairs[i] = TrainingPair{
			Query:  Query{Center: center, Theta: theta},
			Answer: f(center, theta),
		}
	}
	return pairs
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(3)
	if cfg.Dim != 3 || cfg.ResolutionA != 0.25 || cfg.Gamma != 0.01 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantVig := 0.25 * (math.Sqrt(3) + 1)
	if math.Abs(m.Config().Vigilance-wantVig) > 1e-12 {
		t.Errorf("derived vigilance = %v, want %v", m.Config().Vigilance, wantVig)
	}
	if m.Config().MinGammaSteps != 100 {
		t.Errorf("normalized config = %+v", m.Config())
	}
}

func TestNewModelValidation(t *testing.T) {
	cases := []Config{
		{Dim: 0, ResolutionA: 0.25, Gamma: 0.01},
		{Dim: 2, ResolutionA: 0, Gamma: 0.01},
		{Dim: 2, ResolutionA: 1.5, Gamma: 0.01},
		{Dim: 2, ResolutionA: 0.25, Gamma: 0},
		// A cap or half-life no WAL capacity record can carry.
		{Dim: 2, ResolutionA: 0.25, Gamma: 0.01, MaxPrototypes: -1},
		{Dim: 2, ResolutionA: 0.25, Gamma: 0.01, MaxPrototypes: wal.MaxCapacity + 1},
		{Dim: 2, ResolutionA: 0.25, Gamma: 0.01, MaxPrototypes: 10, Eviction: Eviction{HalfLife: wal.MaxHalfLife + 1}},
	}
	for i, cfg := range cases {
		if _, err := NewModel(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	// Explicit vigilance bypasses ResolutionA validation.
	if _, err := NewModel(Config{Dim: 2, Vigilance: 0.7, Gamma: 0.01}); err != nil {
		t.Errorf("explicit vigilance rejected: %v", err)
	}
}

func TestObserveValidation(t *testing.T) {
	m, _ := NewModel(DefaultConfig(2))
	if _, err := m.Observe(Query{Center: []float64{1}, Theta: 0.1}, 1); !errors.Is(err, ErrDimension) {
		t.Errorf("dim err = %v", err)
	}
	if _, err := m.Observe(Query{Center: []float64{1, 2}, Theta: 0.1}, math.NaN()); err == nil {
		t.Error("NaN answer accepted")
	}
	if _, err := m.Observe(Query{Center: []float64{1, 2}, Theta: 0.1}, math.Inf(1)); err == nil {
		t.Error("Inf answer accepted")
	}
}

func TestFirstObservationCreatesPrototype(t *testing.T) {
	m, _ := NewModel(DefaultConfig(2))
	info, err := m.Observe(Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Created || info.Winner != 0 || m.K() != 1 || m.Steps() != 1 {
		t.Errorf("info = %+v, K=%d", info, m.K())
	}
	slot := writerSlots(m)[0]
	if slot.coef[0] != 3 {
		t.Errorf("intercept initialized to %v, want the observed answer 3", slot.coef[0])
	}
	if !slices.Equal(slot.row, []float64{0.5, 0.5, 0.1}) || slot.wins != 1 {
		t.Errorf("prototype = %v with %d wins, want [0.5 0.5 0.1] with 1", slot.row, slot.wins)
	}
}

func TestPaperInterceptInitialization(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.InitInterceptWithAnswer = false
	m, _ := NewModel(cfg)
	_, _ = m.Observe(Query{Center: []float64{0.5}, Theta: 0.1}, 3)
	if y := writerSlots(m)[0].coef[0]; y != 0 {
		t.Errorf("paper-mode intercept = %v, want 0", y)
	}
}

func TestDistantQuerySpawnsPrototype(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.ResolutionA = 0.1 // vigilance ≈ 0.24
	m, _ := NewModel(cfg)
	_, _ = m.Observe(Query{Center: []float64{0.1, 0.1}, Theta: 0.1}, 1)
	info, err := m.Observe(Query{Center: []float64{0.9, 0.9}, Theta: 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Created || m.K() != 2 {
		t.Errorf("distant query should spawn a prototype: %+v K=%d", info, m.K())
	}
	if !math.IsInf(info.Gamma, 1) {
		t.Errorf("growth step must not allow convergence, Γ = %v", info.Gamma)
	}
}

func TestNearbyQueryUpdatesWinner(t *testing.T) {
	cfg := DefaultConfig(2)
	m, _ := NewModel(cfg)
	_, _ = m.Observe(Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, 1)
	before := writerSlots(m)[0]
	info, err := m.Observe(Query{Center: []float64{0.52, 0.5}, Theta: 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Created {
		t.Fatal("nearby query must not spawn a prototype")
	}
	after := writerSlots(m)[0]
	if slices.Equal(after.center(), before.center()) {
		t.Error("prototype did not move toward the query")
	}
	if after.coef[0] == before.coef[0] {
		t.Error("intercept did not update")
	}
	if after.wins != 2 {
		t.Errorf("wins = %d", after.wins)
	}
	if info.GammaJ <= 0 || info.GammaH <= 0 || info.Gamma != math.Max(info.GammaJ, info.GammaH) {
		t.Errorf("step drifts = %+v", info)
	}
}

func TestTrainConvergesOnStationaryStream(t *testing.T) {
	pairs := planeStream(20000, 2, 0.3, []float64{0.5, -0.2}, 1.0, 1)
	m, _ := NewModel(DefaultConfig(2))
	res, err := m.TrainBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("training did not converge within %d pairs (Γ=%v)", len(pairs), res.FinalGamma)
	}
	if res.Steps >= len(pairs) {
		t.Errorf("expected early termination, used %d of %d pairs", res.Steps, len(pairs))
	}
	if res.FinalGamma > m.Config().Gamma {
		t.Errorf("final Γ = %v > γ = %v", res.FinalGamma, m.Config().Gamma)
	}
	if res.K < 1 || res.K != m.K() {
		t.Errorf("K = %d vs %d", res.K, m.K())
	}
	if res.Accepted != res.Steps {
		t.Errorf("a fresh model accepted %d pairs in %d steps", res.Accepted, res.Steps)
	}
	if !m.View().Converged() {
		t.Error("model must report convergence")
	}
}

func TestObserveAfterConvergenceIsFrozen(t *testing.T) {
	pairs := planeStream(20000, 2, 0.3, []float64{0.5, -0.2}, 1.0, 2)
	m, _ := NewModel(DefaultConfig(2))
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if !m.View().Converged() {
		t.Skip("stream did not converge; freezing behaviour untestable here")
	}
	before := writerSlots(m)
	stepsBefore := m.Steps()
	info, err := m.Observe(Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Converged {
		t.Error("post-convergence observation should report converged")
	}
	if m.Steps() != stepsBefore {
		t.Error("post-convergence observation must not consume steps")
	}
	after := writerSlots(m)
	for i := range before {
		if !slices.Equal(before[i].center(), after[i].center()) || before[i].coef[0] != after[i].coef[0] {
			t.Fatal("parameters changed after convergence")
		}
	}
}

func TestPredictMeanOnLinearSurface(t *testing.T) {
	// Answer surface is linear in (x, θ); predictions on unseen queries must
	// be accurate after training.
	b0, bx, btheta := 0.3, []float64{0.5, -0.2}, 1.0
	pairs := planeStream(8000, 2, b0, bx, btheta, 3)
	m, _ := NewModel(DefaultConfig(2))
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	test := planeStream(500, 2, b0, bx, btheta, 99)
	var se float64
	for _, p := range test {
		yhat, err := m.PredictMean(p.Query)
		if err != nil {
			t.Fatal(err)
		}
		se += (yhat - p.Answer) * (yhat - p.Answer)
	}
	rmse := math.Sqrt(se / float64(len(test)))
	if rmse > 0.03 {
		t.Errorf("RMSE on linear surface = %v, want <= 0.03", rmse)
	}
}

func TestPredictMeanNonLinearSurfaceBeatsGlobalMean(t *testing.T) {
	// For a non-linear answer surface the model's prediction error must be
	// clearly below the error of always predicting the global mean.
	f := func(x []float64, theta float64) float64 {
		return math.Sin(2*math.Pi*x[0])*x[1] + theta
	}
	train := surfaceStream(12000, 2, f, 4)
	cfg := DefaultConfig(2)
	cfg.ResolutionA = 0.1 // fine enough quantization to resolve the sine period
	m, _ := NewModel(cfg)
	if _, err := m.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	test := surfaceStream(1000, 2, f, 77)
	var mean float64
	for _, p := range train {
		mean += p.Answer
	}
	mean /= float64(len(train))
	var seModel, seMean float64
	for _, p := range test {
		yhat, err := m.PredictMean(p.Query)
		if err != nil {
			t.Fatal(err)
		}
		seModel += (yhat - p.Answer) * (yhat - p.Answer)
		seMean += (mean - p.Answer) * (mean - p.Answer)
	}
	if seModel >= seMean*0.25 {
		t.Errorf("model MSE %v should be well below global-mean MSE %v", seModel/float64(len(test)), seMean/float64(len(test)))
	}
}

func TestPredictBeforeTraining(t *testing.T) {
	m, _ := NewModel(DefaultConfig(2))
	q := Query{Center: []float64{0.5, 0.5}, Theta: 0.1}
	if _, err := m.PredictMean(q); !errors.Is(err, ErrNotTrained) {
		t.Errorf("PredictMean err = %v", err)
	}
	if _, err := m.Regression(q); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Regression err = %v", err)
	}
	if _, err := m.PredictValue(q, []float64{0.5, 0.5}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("PredictValue err = %v", err)
	}
	if _, _, err := m.View().Neighborhood(q); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Neighborhood err = %v", err)
	}
}

func TestPredictDimensionErrors(t *testing.T) {
	m, _ := NewModel(DefaultConfig(2))
	_, _ = m.Observe(Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, 1)
	bad := Query{Center: []float64{0.5}, Theta: 0.1}
	if _, err := m.PredictMean(bad); !errors.Is(err, ErrDimension) {
		t.Errorf("PredictMean err = %v", err)
	}
	if _, err := m.Regression(bad); !errors.Is(err, ErrDimension) {
		t.Errorf("Regression err = %v", err)
	}
	good := Query{Center: []float64{0.5, 0.5}, Theta: 0.1}
	if _, err := m.PredictValue(good, []float64{0.1}); !errors.Is(err, ErrDimension) {
		t.Errorf("PredictValue err = %v", err)
	}
	if _, _, err := m.View().Neighborhood(bad); !errors.Is(err, ErrDimension) {
		t.Errorf("Neighborhood err = %v", err)
	}
}

func TestPredictMeanExtrapolatesWhenNoOverlap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ResolutionA = 0.05
	m, _ := NewModel(cfg)
	// Single prototype near 0.2.
	for i := 0; i < 50; i++ {
		_, _ = m.Observe(Query{Center: []float64{0.2}, Theta: 0.05}, 1.0)
	}
	// A far-away query that overlaps nothing still gets an answer from the
	// closest prototype (Case 3 of Algorithm 3).
	far := Query{Center: []float64{0.9}, Theta: 0.01}
	qs, _, err := m.View().Neighborhood(far)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Fatalf("expected empty neighbourhood, got %d prototypes", len(qs))
	}
	if _, err := m.PredictMean(far); err != nil {
		t.Errorf("extrapolated PredictMean failed: %v", err)
	}
	models, err := m.Regression(far)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Weight != 0 {
		t.Errorf("extrapolated regression = %+v", models)
	}
	if _, err := m.PredictValue(far, []float64{0.9}); err != nil {
		t.Errorf("extrapolated PredictValue failed: %v", err)
	}
}

func TestRegressionRecoversLocalSlopes(t *testing.T) {
	// Data function u = g(x) = 2x over [0,1]; queries report the mean of u in
	// D(x0,θ), which for a linear g equals g(x0). The learned local models
	// must therefore have slope ≈ 2 wherever they have seen enough queries.
	g := func(x []float64, theta float64) float64 { return 2 * x[0] }
	train := surfaceStream(15000, 1, g, 5)
	m, _ := NewModel(DefaultConfig(1))
	if _, err := m.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	q := Query{Center: []float64{0.5}, Theta: 0.2}
	models, err := m.Regression(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("no local models returned")
	}
	var weightSum float64
	for _, lm := range models {
		weightSum += lm.Weight
		// Each overlapping local model should approximate u = 2x: prediction
		// at its own centre should be close to 2*centre.
		pred := lm.Predict(lm.Center)
		want := 2 * lm.Center[0]
		if math.Abs(pred-want) > 0.15 {
			t.Errorf("local model at %v predicts %v, want ≈ %v", lm.Center, pred, want)
		}
	}
	if math.Abs(weightSum-1) > 1e-9 {
		t.Errorf("normalized weights sum to %v", weightSum)
	}
}

func TestPredictValueApproximatesDataFunction(t *testing.T) {
	// Same setting as above: û(x) should approximate g(x) = 2x.
	g := func(x []float64, theta float64) float64 { return 2 * x[0] }
	train := surfaceStream(15000, 1, g, 6)
	m, _ := NewModel(DefaultConfig(1))
	if _, err := m.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var se float64
	const n = 200
	for i := 0; i < n; i++ {
		x := 0.1 + 0.8*rng.Float64()
		q, err := NewQuery([]float64{x}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		uhat, err := m.PredictValue(q, []float64{x})
		if err != nil {
			t.Fatal(err)
		}
		se += (uhat - 2*x) * (uhat - 2*x)
	}
	rmse := math.Sqrt(se / n)
	if rmse > 0.1 {
		t.Errorf("data-value RMSE = %v", rmse)
	}
}

func TestPredictValueValidation(t *testing.T) {
	m, _ := NewModel(DefaultConfig(1))
	_, _ = m.Observe(Query{Center: []float64{0.5}, Theta: 0.1}, 1)
	if _, err := NewQuery([]float64{0.5}, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := NewQuery(nil, 0.1); err == nil {
		t.Error("empty point accepted")
	}
	q, err := NewQuery([]float64{0.5}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictValue(q, nil); err == nil {
		t.Error("empty point accepted")
	}
	if _, err := m.PredictValue(q, []float64{0.5}); err != nil {
		t.Errorf("valid point refused: %v", err)
	}
}

func TestResolutionControlsPrototypeCount(t *testing.T) {
	f := func(x []float64, theta float64) float64 { return x[0] + x[1] }
	train := surfaceStream(5000, 2, f, 7)
	countFor := func(a float64) int {
		cfg := DefaultConfig(2)
		cfg.ResolutionA = a
		m, _ := NewModel(cfg)
		if _, err := m.TrainBatch(train); err != nil {
			t.Fatal(err)
		}
		return m.K()
	}
	coarse := countFor(1.0)
	medium := countFor(0.25)
	fine := countFor(0.08)
	if coarse != 1 {
		t.Errorf("a=1 should give a single prototype, got %d", coarse)
	}
	if !(fine > medium && medium > coarse) {
		t.Errorf("K not monotone in resolution: fine=%d medium=%d coarse=%d", fine, medium, coarse)
	}
}

// TestQuantizationErrorShrinksWithResolution checks the AVQ objective J of
// Eq. 7, the mean squared query-space distance from each training query to
// its winning prototype: on one seeded stream, a finer resolution a (a
// smaller vigilance ρ) must quantize the queries more closely.
func TestQuantizationErrorShrinksWithResolution(t *testing.T) {
	f := func(x []float64, theta float64) float64 { return x[0] + x[1] }
	train := surfaceStream(5000, 2, f, 11)
	errorFor := func(a float64) float64 {
		cfg := DefaultConfig(2)
		cfg.ResolutionA = a
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainBatch(train); err != nil {
			t.Fatal(err)
		}
		v := m.View()
		var j float64
		for _, p := range train {
			_, d, err := v.Winner(p.Query)
			if err != nil {
				t.Fatal(err)
			}
			j += d * d
		}
		return j / float64(len(train))
	}
	fine, medium, coarse := errorFor(0.08), errorFor(0.25), errorFor(1.0)
	if !(fine < medium && medium < coarse) {
		t.Errorf("J not monotone in resolution: fine=%v medium=%v coarse=%v", fine, medium, coarse)
	}
}

// TestSchedules pins the paper's learning rate η_t = 1/(t+1): t is the
// winner's win count under the per-prototype rate (a spawn is one win, and a
// loaded prototype without wins counts as one) and the step count under the
// global rate. With θ = 0 a move is w ← w + η_t·(q − w) on the centre alone.
func TestSchedules(t *testing.T) {
	for _, byProto := range []bool{true, false} {
		m, err := NewModel(Config{Dim: 1, Vigilance: 10, Gamma: 1e-300, RateByPrototype: byProto})
		if err != nil {
			t.Fatal(err)
		}
		insertProto(m, Query{Center: []float64{100}}, make([]float64, 3), 0) // slot 0, no wins
		m.publishLocked()
		if info, err := m.Observe(Query{Center: []float64{0}}, 0); err != nil || !info.Created || info.Winner != 1 {
			t.Fatalf("spawn: %+v, %v", info, err)
		}
		move := func(slot int, q float64, tt int) {
			t.Helper()
			w := writerSlots(m)[slot].row[0]
			if _, err := m.Observe(Query{Center: []float64{q}}, 0); err != nil {
				t.Fatal(err)
			}
			eta := 1 / float64(tt+1)
			if got, want := writerSlots(m)[slot].row[0], w+eta*(q-w); got != want {
				t.Errorf("byPrototype=%v: slot %d moved to %v, want %v (η = 1/%d)", byProto, slot, got, want, tt+1)
			}
		}
		for i := range 3 { // steps 2..4, the spawned slot's wins 1..3
			tt := i + 2
			if byProto {
				tt = i + 1
			}
			move(1, 1, tt)
		}
		tt := 5 // step 5; slot 0 has no wins yet
		if byProto {
			tt = 1
		}
		move(0, 101, tt)
	}
}

func TestGammaTraceDecreases(t *testing.T) {
	pairs := planeStream(6000, 2, 0.3, []float64{0.5, -0.2}, 1.0, 10)
	m, _ := NewModel(DefaultConfig(2))
	// Γ after every step: one pair per batch, until the criterion fires.
	var trace []float64
	for i := range pairs {
		res, err := m.TrainBatch(pairs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, res.FinalGamma)
		if res.Converged {
			break
		}
	}
	// Compare the median Γ of an early window with a late window (ignoring
	// +Inf growth steps).
	finite := func(lo, hi int) []float64 {
		var out []float64
		for _, g := range trace[lo:hi] {
			if !math.IsInf(g, 1) {
				out = append(out, g)
			}
		}
		return out
	}
	if len(trace) < 400 {
		t.Skip("trace too short to compare windows")
	}
	early := finite(100, 200)
	late := finite(len(trace)-100, len(trace))
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if len(early) == 0 || len(late) == 0 {
		t.Skip("not enough finite steps in the windows")
	}
	if avg(late) >= avg(early) {
		t.Errorf("Γ did not decrease: early %v late %v", avg(early), avg(late))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pairs := planeStream(5000, 2, 0.3, []float64{0.5, -0.2}, 1.0, 11)
	m, _ := NewModel(DefaultConfig(2))
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != m.K() || loaded.Steps() != m.Steps() || loaded.View().Converged() != m.View().Converged() {
		t.Errorf("loaded model differs: K %d/%d steps %d/%d", loaded.K(), m.K(), loaded.Steps(), m.Steps())
	}
	// Predictions must be identical.
	test := planeStream(100, 2, 0.3, []float64{0.5, -0.2}, 1.0, 12)
	for _, p := range test {
		a, err1 := m.PredictMean(p.Query)
		b, err2 := loaded.PredictMean(p.Query)
		if err1 != nil || err2 != nil || math.Abs(a-b) > 1e-12 {
			t.Fatalf("prediction mismatch after reload: %v vs %v (%v %v)", a, b, err1, err2)
		}
	}
}

func TestLoadRejectsInvalidDocuments(t *testing.T) {
	cases := map[string]string{
		"not json":        "hello",
		"wrong version":   `{"version": 99, "dim": 2, "vigilance": 0.5, "gamma": 0.01}`,
		"version 1":       `{"version": 1, "dim": 2, "vigilance": 0.5, "gamma": 0.01}`,
		"bad dims":        `{"version": 2, "dim": 0, "vigilance": 0.5, "gamma": 0.01}`,
		"bad llm dim":     `{"version": 2, "dim": 2, "vigilance": 0.5, "gamma": 0.01, "llms": [{"center": [1], "slope_x": [1, 2]}]}`,
		"non-finite vals": `{"version": 2, "dim": 1, "vigilance": 0.5, "gamma": 0.01, "llms": [{"center": [1], "theta": 1e999, "slope_x": [0]}]}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); !errors.Is(err, ErrBadModelFile) {
			t.Errorf("%s: err = %v, want ErrBadModelFile", name, err)
		}
	}
}

func TestLLMDataModelTheorem3(t *testing.T) {
	// Theorem 3: over D_k, g(x) ≈ y_k + b_{X,k}(x − x_k) with intercept
	// y_k − b_{X,k}·x_k and slope b_{X,k}. The prototype is [x_k, θ_k] =
	// [0.5, 1.0, 0.2] and its coefficients [y_k, b_X, b_Θ] = [3, 2, −1, 0.7].
	l := proto{row: []float64{0.5, 1.0, 0.2}, coef: []float64{3, 2, -1, 0.7}}
	dm := l.dataModel()
	wantIntercept := 3.0 - (2*0.5 + (-1)*1.0)
	if math.Abs(dm.Intercept-wantIntercept) > 1e-12 {
		t.Errorf("intercept = %v, want %v", dm.Intercept, wantIntercept)
	}
	if !slices.Equal(dm.Slope, []float64{2, -1}) {
		t.Errorf("slope = %v", dm.Slope)
	}
	if !slices.Equal(dm.Center, []float64{0.5, 1.0}) || dm.Theta != 0.2 {
		t.Errorf("subspace = %v θ=%v", dm.Center, dm.Theta)
	}
	// The data model's Predict must agree with evalAtPrototypeRadius everywhere.
	for _, x := range [][]float64{{0, 0}, {0.5, 1}, {1, 2}, {-3, 4}} {
		a := dm.Predict(x)
		b := l.evalAtPrototypeRadius(x)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("dataModel.Predict(%v) = %v, evalAtPrototypeRadius = %v", x, a, b)
		}
	}
	if dm.String() == "" || (LocalLinear{}).String() == "" {
		t.Error("String must not be empty")
	}
}

func TestLLMEval(t *testing.T) {
	// x_k = 1, θ_k = 0.5; y_k = 2, b_X = 3, b_Θ = 4.
	l := proto{row: []float64{1, 0.5}, coef: []float64{2, 3, 4}}
	// f(x, θ) = 2 + 3(x−1) + 4(θ−0.5).
	got := l.eval([]float64{2}, 1)
	if math.Abs(got-(2+3+2)) > 1e-12 {
		t.Errorf("eval = %v", got)
	}
	// At its own radius the θ term vanishes: f(x, θ_k) = 2 + 3(x−1).
	if got := l.evalAtPrototypeRadius([]float64{2}); math.Abs(got-5) > 1e-12 {
		t.Errorf("evalAtPrototypeRadius = %v", got)
	}
	pq := l.query()
	if pq.Theta != 0.5 || !slices.Equal(pq.Center, []float64{1}) {
		t.Errorf("query = %+v", pq)
	}
	pq.Center[0] = 99
	if l.row[0] != 1 {
		t.Error("query must copy the prototype's centre")
	}
}

// TestLLMsReturnsDeepCopies: what the read surface hands out — Regression's
// local models and Neighborhood's prototype queries — shares no memory with
// the published rows, so a caller that edits an answer cannot edit the model.
func TestLLMsReturnsDeepCopies(t *testing.T) {
	m, _ := NewModel(DefaultConfig(1))
	_, _ = m.Observe(Query{Center: []float64{0.5}, Theta: 0.1}, 1)
	want := writerSlots(m)
	v := m.View()
	q := Query{Center: []float64{0.5}, Theta: 0.1}
	models, err := v.Regression(q)
	if err != nil {
		t.Fatal(err)
	}
	models[0].Slope[0], models[0].Center[0] = 999, 999
	protos, _, err := v.Neighborhood(q)
	if err != nil {
		t.Fatal(err)
	}
	protos[0].Center[0] = 999
	if got := writerSlots(m); !reflect.DeepEqual(got, want) {
		t.Errorf("writer state after editing answers = %+v, want %+v", got, want)
	}
	if again, _ := m.View().Regression(q); again[0].Center[0] != 0.5 || again[0].Slope[0] != 0 {
		t.Errorf("served model after editing answers = %+v", again[0])
	}
}

func BenchmarkObserve2D(b *testing.B) {
	m, _ := NewModel(DefaultConfig(2))
	pairs := planeStream(4096, 2, 0.3, []float64{0.5, -0.2}, 1.0, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := m.Observe(p.Query, p.Answer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictMean2D(b *testing.B) {
	m, _ := NewModel(DefaultConfig(2))
	pairs := planeStream(8000, 2, 0.3, []float64{0.5, -0.2}, 1.0, 14)
	if _, err := m.TrainBatch(pairs); err != nil {
		b.Fatal(err)
	}
	q := Query{Center: []float64{0.4, 0.6}, Theta: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictMean(q); err != nil {
			b.Fatal(err)
		}
	}
}

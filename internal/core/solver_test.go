package core

import (
	"math"
	"testing"
)

func TestSolverString(t *testing.T) {
	if SolverRLS.String() != "rls" || SolverSGD.String() != "sgd" {
		t.Errorf("solver names: %q %q", SolverRLS, SolverSGD)
	}
	if Solver(9).String() != "unknown" {
		t.Error("unknown solver name")
	}
}

// rmseOn evaluates the model's Q1 prediction RMSE over a test stream.
func rmseOn(t *testing.T, m *Model, test []TrainingPair) float64 {
	t.Helper()
	var se float64
	for _, p := range test {
		yhat, err := m.PredictMean(p.Query)
		if err != nil {
			t.Fatal(err)
		}
		se += (yhat - p.Answer) * (yhat - p.Answer)
	}
	return math.Sqrt(se / float64(len(test)))
}

func TestSGDSolverLearnsUsably(t *testing.T) {
	// The paper-faithful SGD solver must still produce a usable model: far
	// better than predicting the global mean, even if less sharp than RLS.
	b0, bx, btheta := 0.3, []float64{0.5, -0.2}, 1.0
	train := planeStream(20000, 2, b0, bx, btheta, 21)
	test := planeStream(800, 2, b0, bx, btheta, 22)

	cfg := DefaultConfig(2)
	cfg.CoefficientSolver = SolverSGD
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, p := range train {
		mean += p.Answer
	}
	mean /= float64(len(train))
	var seMean float64
	for _, p := range test {
		seMean += (mean - p.Answer) * (mean - p.Answer)
	}
	rmseMean := math.Sqrt(seMean / float64(len(test)))
	rmseSGD := rmseOn(t, m, test)
	if rmseSGD >= rmseMean {
		t.Errorf("SGD solver RMSE %v not better than global-mean RMSE %v", rmseSGD, rmseMean)
	}
}

func TestRLSSolverOutperformsSGDOnLinearSurface(t *testing.T) {
	// Ablation: on a linear answer surface RLS recovers the coefficients and
	// must beat the first-order SGD rule with the same budget of pairs.
	b0, bx, btheta := 0.3, []float64{0.5, -0.2}, 1.0
	train := planeStream(20000, 2, b0, bx, btheta, 23)
	test := planeStream(800, 2, b0, bx, btheta, 24)

	results := make(map[Solver]float64)
	for _, solver := range []Solver{SolverRLS, SolverSGD} {
		cfg := DefaultConfig(2)
		cfg.CoefficientSolver = solver
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainBatch(train); err != nil {
			t.Fatal(err)
		}
		results[solver] = rmseOn(t, m, test)
	}
	if results[SolverRLS] >= results[SolverSGD] {
		t.Errorf("RLS RMSE %v should beat SGD RMSE %v on a linear surface", results[SolverRLS], results[SolverSGD])
	}
	if results[SolverRLS] > 0.05 {
		t.Errorf("RLS RMSE %v unexpectedly high", results[SolverRLS])
	}
}

func TestRLSRecoversExactLocalCoefficients(t *testing.T) {
	// With a single prototype (a = 1) and a linear answer surface, the RLS
	// coefficients must converge to the true global coefficients.
	b0, bx, btheta := 0.3, []float64{0.5, -0.2}, 1.0
	train := planeStream(5000, 2, b0, bx, btheta, 25)
	cfg := DefaultConfig(2)
	cfg.ResolutionA = 1 // single prototype
	cfg.Gamma = 1e-6    // learn for the whole stream
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	if m.K() != 1 {
		t.Fatalf("expected a single prototype, got %d", m.K())
	}
	coef := writerSlots(m)[0].coef // [y, b_X1, b_X2, b_Θ]
	if math.Abs(coef[1]-bx[0]) > 0.02 || math.Abs(coef[2]-bx[1]) > 0.02 {
		t.Errorf("slopes = %v, want %v", coef[1:3], bx)
	}
	if math.Abs(coef[3]-btheta) > 0.1 {
		t.Errorf("θ-slope = %v, want %v", coef[3], btheta)
	}
	// The full linear map must reproduce answers everywhere, which pins the
	// intercept at the prototype.
	test := planeStream(200, 2, b0, bx, btheta, 26)
	if rmse := rmseOn(t, m, test); rmse > 0.01 {
		t.Errorf("single-prototype RLS RMSE = %v", rmse)
	}
}

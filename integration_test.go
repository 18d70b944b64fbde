package llmq_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/experiments"
	"llmq/internal/sqlfront"
	"llmq/internal/synth"
	"llmq/internal/workload"
)

// TestEndToEndSQLPipeline drives the full stack the way cmd/llmq does:
// synthetic data → engine → exact execution → model training → SQL-routed
// answers, and checks the model's APPROX answers agree with the exact ones
// within a tolerance on the output scale.
func TestEndToEndSQLPipeline(t *testing.T) {
	pts, err := synth.Generate(synth.R1Config(12000, 2, 99))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPoints("r1", pts.Xs, pts.Us)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	tab, err := cat.LoadDataset("r1", ds)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.GenConfig{
		Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.12, ThetaStdDev: 0.02, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.NewHarness(ex, gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.08
	model, _, _, err := h.TrainModel(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}

	// Output scale for tolerance.
	bounds, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	outScale := bounds.OutputMax - bounds.OutputMin

	stmts := []string{
		"SELECT AVG(u) FROM r1 WITHIN 0.15 OF (0.4, 0.6)",
		"SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.7, 0.3)",
		"SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)",
	}
	for _, text := range stmts {
		stmt, err := sqlfront.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		exact, err := ex.MeanCtx(context.Background(), exec.RadiusQuery{Center: stmt.Center, Theta: stmt.Theta, P: stmt.Norm})
		if err != nil {
			t.Fatalf("exact %q: %v", text, err)
		}
		q, err := core.NewQuery(stmt.Center, stmt.Theta)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := model.PredictMean(q)
		if err != nil {
			t.Fatalf("approx %q: %v", text, err)
		}
		if relErr := math.Abs(approx-exact.Mean) / outScale; relErr > 0.1 {
			t.Errorf("%s: approx %v vs exact %v (relative error %.3f of the output range)",
				text, approx, exact.Mean, relErr)
		}
	}

	// The Q2 SQL path: the model's local models must describe the subspace at
	// least as well as the global linear fit does.
	stmt, err := sqlfront.Parse("SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.2 OF (0.5, 0.5)")
	if err != nil {
		t.Fatal(err)
	}
	rq := exec.RadiusQuery{Center: stmt.Center, Theta: stmt.Theta}
	global, err := ex.GlobalRegression()
	if err != nil {
		t.Fatal(err)
	}
	globalFit, err := experiments.GoodnessOverSubspace(ex, rq, global.Predict)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := core.NewQuery(stmt.Center, stmt.Theta)
	locals, err := model.Regression(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) == 0 {
		t.Fatal("no local models returned")
	}
	// Piecewise prediction with the local models.
	llmFit, err := experiments.GoodnessOverSubspace(ex, rq, func(x []float64) float64 {
		best, bestDist := 0, math.Inf(1)
		for k, lm := range locals {
			var s float64
			for j := range x {
				d := x[j] - lm.Center[j]
				s += d * d
			}
			if s < bestDist {
				best, bestDist = k, s
			}
		}
		return locals[best].Predict(x)
	})
	if err != nil {
		t.Fatal(err)
	}
	if llmFit.FVU >= globalFit.FVU {
		t.Errorf("LLM piecewise FVU %v should beat the global fit %v over the queried subspace", llmFit.FVU, globalFit.FVU)
	}
}

// TestModelPersistsAcrossTheFullPipeline trains a model, saves it, reloads it
// and verifies it serves the same predictions — the deployment flow where the
// model is trained next to the DBMS and shipped to query routers.
func TestModelPersistsAcrossTheFullPipeline(t *testing.T) {
	env, err := experiments.NewEnv(experiments.R1, 2, 6000, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, _, _, err := env.TrainDefault(0.1, 2500)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	queries := env.Harness.Gen.Queries(200)
	for _, q := range queries {
		a, err1 := model.PredictMean(q)
		b, err2 := reloaded.PredictMean(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("prediction errors: %v / %v", err1, err2)
		}
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("reloaded model diverges: %v vs %v", a, b)
		}
	}
	// And it still evaluates acceptably against the exact executor.
	eval, err := experiments.EvaluateQ1(env.Harness, reloaded, queries)
	if err != nil && !errors.Is(err, workload.ErrNoUsableQueries) {
		t.Fatal(err)
	}
	if err == nil && (eval.RMSE <= 0 || math.IsNaN(eval.RMSE)) {
		t.Errorf("reloaded model RMSE = %v", eval.RMSE)
	}
}

// TestScalabilityInvariant verifies the paper's headline claim end to end
// (figure 12) by counting work instead of timing it: over 8× the data, the
// exact executor selects about 8× the rows per query, while the model's
// prototype count K and the overlap members it fuses per query stay put.
func TestScalabilityInvariant(t *testing.T) {
	type point struct {
		n, k              int
		selected, members int // summed over the evaluated queries
	}
	var pts []point
	for _, n := range []int{4000, 32000} {
		env, err := experiments.NewEnv(experiments.R2, 2, n, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		model, _, _, err := env.TrainDefault(0.1, 1200)
		if err != nil {
			t.Fatal(err)
		}
		p := point{n: n, k: model.K()}
		view := model.View()
		for _, q := range env.Harness.Gen.Queries(200) {
			res, err := env.Harness.Exec.MeanCtx(context.Background(), exec.RadiusQuery{Center: q.Center, Theta: q.Theta})
			if errors.Is(err, exec.ErrEmptySubspace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			protos, _, err := view.Neighborhood(q)
			if err != nil {
				t.Fatal(err)
			}
			p.selected += res.Count
			p.members += len(protos)
		}
		pts = append(pts, p)
	}
	small, large := pts[0], pts[1]
	t.Logf("n=%d: K=%d, %d rows selected, %d members fused; n=%d: K=%d, %d rows, %d members",
		small.n, small.k, small.selected, small.members, large.n, large.k, large.selected, large.members)
	if large.selected < 4*small.selected {
		t.Errorf("exact execution should select more rows with 8x the data: %d -> %d", small.selected, large.selected)
	}
	if large.k > 2*small.k || large.members > 2*small.members {
		t.Errorf("the model's work grew with the data: K %d -> %d, overlap members %d -> %d",
			small.k, large.k, small.members, large.members)
	}
}

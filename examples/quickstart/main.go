// Quickstart: the minimal end-to-end use of the library.
//
// It builds a small synthetic relation in the in-memory engine, executes a
// random query workload against it to obtain (query, answer) pairs, trains
// the query-driven LLM model, and then answers an unseen mean-value (Q1) and
// linear-regression (Q2) query from the model alone — no data access —
// comparing both with the exact answers.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/synth"
	"llmq/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Create a synthetic 2-attribute dataset with a non-linear response
	//    and load it into the in-memory DBMS substrate.
	pts, err := synth.Generate(synth.R1Config(20000, 2, 42))
	if err != nil {
		return err
	}
	ds, err := dataset.FromPoints("sensors", pts.Xs, pts.Us)
	if err != nil {
		return err
	}
	catalog := engine.NewCatalog()
	table, err := catalog.LoadDataset("sensors", ds)
	if err != nil {
		return err
	}
	fmt.Printf("loaded relation %q with %d tuples (%d input attributes)\n", table.Name(), table.Len(), ds.Dim())

	// 2. Build the exact executor (grid-indexed radius selection) and a
	//    random query workload generator.
	executor, err := exec.NewExecutorWithGrid(table, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		return err
	}
	generator, err := workload.NewGenerator(workload.GenConfig{
		Dim: 2, CenterLo: 0, CenterHi: 1,
		ThetaMean: 0.1, ThetaStdDev: 0.02, Seed: 7,
	})
	if err != nil {
		return err
	}
	harness, err := workload.NewHarness(executor, generator)
	if err != nil {
		return err
	}

	// 3. Train the LLM model from executed queries (Algorithm 1).
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.08
	model, result, pairs, err := harness.TrainModel(cfg, 4000)
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d query/answer pairs: K=%d local linear mappings, converged=%v\n",
		len(pairs), model.K(), result.Converged)

	// 4. Answer an unseen Q1 query from the model and compare with the exact
	//    in-DBMS answer.
	q, err := core.NewQuery([]float64{0.4, 0.6}, 0.12)
	if err != nil {
		return err
	}
	predicted, err := model.PredictMean(q)
	if err != nil {
		return err
	}
	exact, err := executor.MeanCtx(context.Background(), exec.RadiusQuery{Center: q.Center, Theta: q.Theta})
	if err != nil {
		return err
	}
	fmt.Printf("\nQ1 over %s:\n  predicted mean  %.5f   (no data access)\n  exact mean      %.5f   (%d tuples, %v)\n",
		q, predicted, exact.Mean, exact.Count, exact.Elapsed)

	// 5. Answer the corresponding Q2 query: the list of local linear models.
	locals, err := model.Regression(q)
	if err != nil {
		return err
	}
	fmt.Printf("\nQ2 over %s: %d local linear model(s)\n", q, len(locals))
	for i, lm := range locals {
		fmt.Printf("  S[%d] weight %.3f: %s\n", i, lm.Weight, lm)
	}
	reg, err := executor.RegressionCtx(context.Background(), exec.RadiusQuery{Center: q.Center, Theta: q.Theta})
	if err != nil {
		return err
	}
	fmt.Printf("  exact per-subspace OLS: intercept=%.4f slope=%v (R²=%.3f, %v)\n",
		reg.Intercept, reg.Slope, reg.CoD, reg.Elapsed)

	// 6. Predict an individual data value.
	uhat, err := model.PredictValue(q, []float64{0.42, 0.58})
	if err != nil {
		return err
	}
	fmt.Printf("\npredicted u at (0.42, 0.58): %.5f (actual data function value %.5f)\n",
		uhat, synth.SensorSurrogate([]float64{0.42, 0.58}))
	return nil
}

package llmq_test

import (
	"context"
	"fmt"
	"log"
	"math"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/sqlfront"
	"llmq/internal/synth"
	"llmq/internal/workload"
)

// The minimal end-to-end use of the library, the paper's core claim in
// miniature (Sections III–V): a small synthetic relation is loaded into the
// in-memory engine, a random query workload executed against it yields
// (query, answer) pairs, the query-driven LLM model trains on them, and then
// answers an unseen mean-value (Q1) and linear-regression (Q2) query from
// the model alone — no data access — beside the exact answers.
func Example_quickstart() {
	// 1. A synthetic 2-attribute dataset with a non-linear response, loaded
	//    into the in-memory DBMS substrate.
	pts, err := synth.Generate(synth.R1Config(20000, 2, 42))
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.FromPoints("sensors", pts.Xs, pts.Us)
	if err != nil {
		log.Fatal(err)
	}
	table, err := engine.NewCatalog().LoadDataset("sensors", ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded relation %q with %d tuples (%d input attributes)\n", table.Name(), table.Len(), ds.Dim())

	// 2. The exact executor (grid-indexed radius selection) and a random
	//    query workload generator.
	executor, err := exec.NewExecutorWithGrid(table, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	generator, err := workload.NewGenerator(workload.GenConfig{
		Dim: 2, CenterLo: 0, CenterHi: 1,
		ThetaMean: 0.1, ThetaStdDev: 0.02, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	harness, err := workload.NewHarness(executor, generator)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the LLM model from executed queries (Algorithm 1).
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.08
	model, result, pairs, err := harness.TrainModel(cfg, 4000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d query/answer pairs: K=%d local linear mappings, converged=%v\n",
		len(pairs), model.K(), result.Converged)

	// 4. An unseen Q1 query, answered by the model and by the exact
	//    in-DBMS execution.
	q, err := core.NewQuery([]float64{0.4, 0.6}, 0.12)
	if err != nil {
		log.Fatal(err)
	}
	rq := exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
	predicted, err := model.PredictMean(q)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := executor.MeanCtx(context.Background(), rq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1 over %s:\n  predicted mean  %.5f   (no data access)\n  exact mean      %.5f   (%d tuples)\n",
		q, predicted, exact.Mean, exact.Count)

	// 5. The corresponding Q2 query: the list of local linear models.
	locals, err := model.Regression(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2 over %s: %d local linear model(s)\n", q, len(locals))
	for i, lm := range locals {
		fmt.Printf("  S[%d] weight %.3f: %s\n", i, lm.Weight, lm)
	}
	reg, err := executor.RegressionCtx(context.Background(), rq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  exact per-subspace OLS: intercept=%.4f slope=[%.4f %.4f] (R²=%.3f)\n",
		reg.Intercept, reg.Slope[0], reg.Slope[1], reg.CoD)

	// 6. An individual data value.
	uhat, err := model.PredictValue(q, []float64{0.42, 0.58})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted u at (0.42, 0.58): %.5f (data function value %.5f)\n",
		uhat, synth.SensorSurrogate([]float64{0.42, 0.58}))
	// Output:
	// loaded relation "sensors" with 20000 tuples (2 input attributes)
	// trained on 4000 query/answer pairs: K=21 local linear mappings, converged=false
	// Q1 over D(x=[0.4, 0.6], θ=0.12):
	//   predicted mean  0.95940   (no data access)
	//   exact mean      0.96267   (842 tuples)
	// Q2 over D(x=[0.4, 0.6], θ=0.12): 1 local linear model(s)
	//   S[0] weight 1.000: u ≈ 0.3765 +2.342·x1 -0.5927·x2
	//   exact per-subspace OLS: intercept=0.4075 slope=[2.8210 -0.9532] (R²=0.923)
	// predicted u at (0.42, 0.58): 1.01627 (data function value 1.04743)
}

// pWaveField is the synthetic "true" seismic field of Example_seismic: a
// smooth regional trend with a fault line across which the velocity
// gradient changes abruptly — the locally-linear-but-globally-non-linear
// structure that local regression queries are meant to reveal.
func pWaveField(x []float64) float64 {
	lon, lat := x[0], x[1]
	base := 5.8 + 0.4*lon - 0.25*lat
	fault := 1.2 * math.Abs(lon-0.55+0.2*lat) // kink along a tilted fault line
	basin := 0.5 * math.Exp(-((lon-0.2)*(lon-0.2)+(lat-0.75)*(lat-0.75))/0.02)
	return base + fault - basin
}

// The paper's motivating scenario (Section I, Figure 1): a relation holds
// seismic P-wave speed measurements over surface coordinates.
// Seismologists ask mean-value queries ("average P-wave speed within a
// radius of a point"), geophysicists ask regression queries ("how does the
// speed depend on longitude and latitude in this region"). The statements,
// in the library's SQL dialect, are answered exactly from the in-memory
// DBMS and then from the model trained on past analyst queries, with no
// data access.
func Example_seismic() {
	pts, err := synth.Generate(synth.Config{
		Name: "survey", N: 30000, Dim: 2, Lo: 0, Hi: 1,
		Func: pWaveField, NoiseStdDev: 0.02, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := dataset.FromPoints("survey", pts.Xs, pts.Us)
	if err != nil {
		log.Fatal(err)
	}
	ds.InputNames = []string{"lon", "lat"}
	ds.OutputName = "pwave"
	table, err := engine.NewCatalog().LoadDataset("survey", ds)
	if err != nil {
		log.Fatal(err)
	}
	executor, err := exec.NewExecutorWithGrid(table, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seismic survey loaded: %d stations\n", table.Len())

	// Train the model from a stream of analyst queries.
	generator, err := workload.NewGenerator(workload.GenConfig{
		Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1, ThetaStdDev: 0.02, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	harness, err := workload.NewHarness(executor, generator)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.12
	model, _, pairs, err := harness.TrainModel(cfg, 5000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model trained from %d past analyst queries (K=%d local models)\n", len(pairs), model.K())

	for _, text := range []string{
		"SELECT AVG(pwave) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT APPROX AVG(pwave) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT REGRESSION(pwave ON lon, lat) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT APPROX REGRESSION(pwave ON lon, lat) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT APPROX VALUE(pwave) FROM survey AT (0.58, 0.42) WITHIN 0.15 OF (0.6, 0.4)",
	} {
		fmt.Printf("sql> %s\n", text)
		stmt, err := sqlfront.Parse(text)
		if err != nil {
			log.Fatal(err)
		}
		if err := answerSeismic(stmt, executor, model); err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// seismic survey loaded: 30000 stations
	// model trained from 5000 past analyst queries (K=9 local models)
	// sql> SELECT AVG(pwave) FROM survey WITHIN 0.15 OF (0.6, 0.4)
	//   = 6.0986 km/s (exact, 2126 stations)
	// sql> SELECT APPROX AVG(pwave) FROM survey WITHIN 0.15 OF (0.6, 0.4)
	//   ≈ 6.0933 km/s (model, no data access)
	// sql> SELECT REGRESSION(pwave ON lon, lat) FROM survey WITHIN 0.15 OF (0.6, 0.4)
	//   global-in-region plane: pwave ≈ 5.152 +1.586·lon -0.017·lat  (R²=0.971 over 2126 stations)
	// sql> SELECT APPROX REGRESSION(pwave ON lon, lat) FROM survey WITHIN 0.15 OF (0.6, 0.4)
	//   2 local model(s) describing the region:
	//     weight 0.85: u ≈ 5.22 +1.493·x1 -0.004048·x2
	//     weight 0.15: u ≈ 6.099 +0.05816·x1 -0.341·x2
	// sql> SELECT APPROX VALUE(pwave) FROM survey AT (0.58, 0.42) WITHIN 0.15 OF (0.6, 0.4)
	//   ≈ 6.0702 km/s at [0.58 0.42] (true field value 6.0638)
}

// answerSeismic answers one parsed statement of Example_seismic: exactly
// from the executor, or from the model for APPROX statements.
func answerSeismic(stmt *sqlfront.Statement, executor *exec.Executor, model *core.Model) error {
	rq := exec.RadiusQuery{Center: stmt.Center, Theta: stmt.Theta, P: stmt.Norm}
	q, err := core.NewQuery(stmt.Center, stmt.Theta)
	if err != nil {
		return err
	}
	switch {
	case stmt.Kind == sqlfront.StmtMean && stmt.Approx:
		yhat, err := model.PredictMean(q)
		if err != nil {
			return err
		}
		fmt.Printf("  ≈ %.4f km/s (model, no data access)\n", yhat)
	case stmt.Kind == sqlfront.StmtMean:
		res, err := executor.MeanCtx(context.Background(), rq)
		if err != nil {
			return err
		}
		fmt.Printf("  = %.4f km/s (exact, %d stations)\n", res.Mean, res.Count)
	case stmt.Kind == sqlfront.StmtRegression && stmt.Approx:
		locals, err := model.Regression(q)
		if err != nil {
			return err
		}
		fmt.Printf("  %d local model(s) describing the region:\n", len(locals))
		for _, lm := range locals {
			fmt.Printf("    weight %.2f: %s\n", lm.Weight, lm)
		}
	case stmt.Kind == sqlfront.StmtRegression:
		res, err := executor.RegressionCtx(context.Background(), rq)
		if err != nil {
			return err
		}
		fmt.Printf("  global-in-region plane: pwave ≈ %.3f %+.3f·lon %+.3f·lat  (R²=%.3f over %d stations)\n",
			res.Intercept, res.Slope[0], res.Slope[1], res.CoD, res.Count)
	case stmt.Kind == sqlfront.StmtValue:
		uhat, err := model.PredictValue(q, stmt.At)
		if err != nil {
			return err
		}
		fmt.Printf("  ≈ %.4f km/s at %v (true field value %.4f)\n", uhat, stmt.At, pWaveField(stmt.At))
	}
	return nil
}

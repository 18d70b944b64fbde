// Seismic analytics: the paper's motivating scenario (Section I, Figure 1).
//
// A relation holds seismic P-wave speed measurements u over surface
// coordinates (longitude, latitude). Seismologists issue mean-value queries
// ("average P-wave speed within a radius of a point") and geophysicists issue
// regression queries ("how does the speed depend on longitude/latitude in
// this region"). This example expresses those queries in the library's SQL
// dialect, serves them exactly from the in-memory DBMS while the model
// trains, and then serves the same statements from the trained model with no
// data access.
//
// Run with:
//
//	go run ./examples/seismic
package main

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

// pWaveField is the synthetic "true" seismic field: a smooth regional trend
// with a fault line across which the velocity gradient changes abruptly —
// precisely the locally-linear-but-globally-non-linear structure that local
// regression queries are meant to reveal.
func pWaveField(x []float64) float64 {
	lon, lat := x[0], x[1]
	base := 5.8 + 0.4*lon - 0.25*lat
	fault := 1.2 * math.Abs(lon-0.55+0.2*lat) // kink along a tilted fault line
	basin := 0.5 * math.Exp(-((lon-0.2)*(lon-0.2)+(lat-0.75)*(lat-0.75))/0.02)
	return base + fault - basin
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Load the survey measurements (longitude, latitude, pwave).
	pts, err := synth.Generate(synth.Config{
		Name: "survey", N: 30000, Dim: 2, Lo: 0, Hi: 1,
		Func: pWaveField, NoiseStdDev: 0.02, Seed: 11,
	})
	if err != nil {
		return err
	}
	ds, err := dataset.FromPoints("survey", pts.Xs, pts.Us)
	if err != nil {
		return err
	}
	ds.InputNames = []string{"lon", "lat"}
	ds.OutputName = "pwave"
	catalog := engine.NewCatalog()
	table, err := catalog.LoadDataset("survey", ds)
	if err != nil {
		return err
	}
	executor, err := exec.NewExecutorWithGrid(table, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		return err
	}
	fmt.Printf("seismic survey loaded: %d stations\n\n", table.Len())

	// Train the model from a stream of analyst queries.
	generator, err := workload.NewGenerator(workload.GenConfig{
		Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.1, ThetaStdDev: 0.02, Seed: 5,
	})
	if err != nil {
		return err
	}
	harness, err := workload.NewHarness(executor, generator)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.12
	model, _, pairs, err := harness.TrainModel(cfg, 5000)
	if err != nil {
		return err
	}
	fmt.Printf("model trained from %d past analyst queries (K=%d local models)\n\n", len(pairs), model.K())

	// The analyst's statements, in the SQL dialect.
	statements := []string{
		"SELECT AVG(pwave) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT APPROX AVG(pwave) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT REGRESSION(pwave ON lon, lat) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT APPROX REGRESSION(pwave ON lon, lat) FROM survey WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT APPROX VALUE(pwave) FROM survey AT (0.58, 0.42) WITHIN 0.15 OF (0.6, 0.4)",
	}
	for _, stmtText := range statements {
		fmt.Printf("sql> %s\n", stmtText)
		stmt, err := sqlfront.Parse(stmtText)
		if err != nil {
			return err
		}
		if err := answer(stmt, executor, model); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func answer(stmt *sqlfront.Statement, executor *exec.Executor, model *core.Model) error {
	rq := exec.RadiusQuery{Center: stmt.Center, Theta: stmt.Theta, P: stmt.Norm}
	switch stmt.Kind {
	case sqlfront.StmtMean:
		if stmt.Approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return err
			}
			yhat, err := model.PredictMean(q)
			if err != nil {
				return err
			}
			fmt.Printf("  ≈ %.4f km/s (model, no data access)\n", yhat)
			return nil
		}
		res, err := executor.MeanCtx(context.Background(), rq)
		if err != nil {
			return err
		}
		fmt.Printf("  = %.4f km/s (exact, %d stations, %v)\n", res.Mean, res.Count, res.Elapsed)
	case sqlfront.StmtRegression:
		if stmt.Approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return err
			}
			locals, err := model.Regression(q)
			if err != nil {
				return err
			}
			fmt.Printf("  %d local model(s) describing the region:\n", len(locals))
			for _, lm := range locals {
				fmt.Printf("    weight %.2f: %s\n", lm.Weight, lm)
			}
			return nil
		}
		res, err := executor.RegressionCtx(context.Background(), rq)
		if err != nil {
			return err
		}
		fmt.Printf("  global-in-region plane: pwave ≈ %.3f %+.3f·lon %+.3f·lat  (R²=%.3f over %d stations)\n",
			res.Intercept, res.Slope[0], res.Slope[1], res.CoD, res.Count)
	case sqlfront.StmtValue:
		q, err := core.NewQuery(stmt.Center, stmt.Theta)
		if err != nil {
			return err
		}
		uhat, err := model.PredictValue(q, stmt.At)
		if err != nil {
			return err
		}
		fmt.Printf("  ≈ %.4f km/s at %v (true field value %.4f)\n", uhat, stmt.At, pWaveField(stmt.At))
	}
	return nil
}

package llmq_test

import (
	"context"
	"io"
	"testing"

	"llmq/internal/core"
	"llmq/internal/exec"
	"llmq/internal/experiments"
	"llmq/internal/workload"
)

// benchScale keeps the per-figure benchmarks fast enough to run as part of
// `go test -bench=.` while still exercising the full pipeline of every
// experiment (dataset generation, exact execution, training, prediction,
// baselines). The `full` scale of cmd/llmq-experiments is the one a
// written reproduction (EXPERIMENTS.md, pending under ROADMAP item 1) is to
// record.
var benchScale = experiments.Scale{
	Name:        "bench",
	DatasetN:    3000,
	TrainPairs:  1500,
	TestQueries: 150,
	Q2Queries:   16,
	Dims:        []int{2},
	Seed:        11,
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAndRender(e, benchScale, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the paper's evaluation (Section VI).

func BenchmarkFig06Training(b *testing.B)         { benchExperiment(b, "fig06") }
func BenchmarkFig07RMSEvsA(b *testing.B)          { benchExperiment(b, "fig07") }
func BenchmarkFig08RMSEvsV(b *testing.B)          { benchExperiment(b, "fig08") }
func BenchmarkFig09FVU(b *testing.B)              { benchExperiment(b, "fig09") }
func BenchmarkFig10CoD(b *testing.B)              { benchExperiment(b, "fig10") }
func BenchmarkFig11DataValue(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12Scalability(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13RadiusImpact(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14RadiusTrajectory(b *testing.B) { benchExperiment(b, "fig14") }

// Ablation benchmarks for where the implementation departs from the paper:
// the RLS coefficient solver and per-prototype learning rates (see
// core.Solver and core.Config.RateByPrototype), and a global fit baseline.

func BenchmarkAblationLearning(b *testing.B)  { benchExperiment(b, "ablation") }
func BenchmarkGlobalFitBaseline(b *testing.B) { benchExperiment(b, "globalfit") }

// Micro-benchmarks comparing one LLM prediction against one exact in-DBMS
// execution on the same environment — the per-query latency behind the
// paper's Figure 12 speedups.

func setupEnv(b *testing.B, kind experiments.DatasetKind, n int) (*experiments.Env, *core.Model) {
	b.Helper()
	env, err := experiments.NewEnv(kind, 2, n, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, _, _, err := env.TrainDefault(0.25, 1500)
	if err != nil {
		b.Fatal(err)
	}
	return env, m
}

func BenchmarkQ1ModelPrediction(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	q := env.Harness.Gen.Queries(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictMean(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQ1ExactExecution20k(b *testing.B) {
	env, _ := setupEnv(b, experiments.R1, 20000)
	q := env.Harness.Gen.Queries(1)[0]
	rq := exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Harness.Exec.MeanCtx(context.Background(), rq); err != nil && err != exec.ErrEmptySubspace {
			b.Fatal(err)
		}
	}
}

func BenchmarkQ2ModelRegression(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	q := env.Harness.Gen.Queries(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Regression(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQ2ExactRegression20k(b *testing.B) {
	env, _ := setupEnv(b, experiments.R1, 20000)
	q := env.Harness.Gen.Queries(1)[0]
	rq := exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Harness.Exec.RegressionCtx(context.Background(), rq); err != nil && err != exec.ErrEmptySubspace {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraining1kPairs(b *testing.B) {
	env, err := experiments.NewEnv(experiments.R1, 2, 10000, 5, 0)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := env.Harness.TrainingPairs(1000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := env.ModelConfig(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewModel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: overlap-weighted prediction (Algorithm 2) vs. always using the
// single nearest prototype. The nearest-only arm times the winner search
// alone; evaluating the winner's mapping adds d+2 multiply-adds.
func BenchmarkAblationNearestVsWeighted(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	queries := env.Harness.Gen.Queries(256)
	b.Run("weighted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.PredictMean(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nearest-only", func(b *testing.B) {
		v := m.View()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := v.Winner(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Index ablation: radius search cost of the three spatial access methods, as
// used by the exact executor.
func BenchmarkIndexRadiusSearch(b *testing.B) {
	env, _ := setupEnv(b, experiments.R1, 20000)
	q := env.Harness.Gen.Queries(1)[0]
	rq := exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := env.Harness.Exec.Select(rq); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end workload benchmark: train + evaluate Q1 on a fresh environment,
// the core loop of every experiment.
func BenchmarkWorkloadTrainAndEvaluate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := experiments.NewEnv(experiments.R1, 2, 3000, int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		m, _, _, err := env.TrainDefault(0.25, 800)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.EvaluateQ1(env.Harness, m, env.Harness.Gen.Queries(100)); err != nil && err != workload.ErrNoUsableQueries {
			b.Fatal(err)
		}
	}
}

package experiments

import (
	"fmt"
	"math"
	"time"

	"llmq/internal/core"
	"llmq/internal/experiments/internal/plr"
	"llmq/internal/experiments/internal/stats"
)

// defaultA is the operating resolution used by the figures that keep a
// fixed: the paper's default a = 0.25 yields K ≈ 450 prototypes on its
// 15M-tuple workload, and at this library's in-memory scales the equivalent
// operating point (K of the order of tens of prototypes) is a ≈ 0.1.
const defaultA = 0.1

func f(v float64) string { return fmt.Sprintf("%.4g", v) }

func dur(d time.Duration) string {
	return fmt.Sprintf("%.4g", float64(d.Nanoseconds())/1e6) // milliseconds
}

// Fig06Training reproduces Figure 6: the termination criterion
// Γ = max(Γ^J, Γ^H) versus the number of consumed training pairs, for R1 and
// R2 and d ∈ Dims, at the default resolution a = 0.25.
func Fig06Training(s Scale) ([]*Table, error) {
	var tables []*Table
	for _, kind := range []DatasetKind{R1, R2} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 6 (%s): termination criterion Γ vs. training pairs |T|", kind),
			Columns: []string{"dim", "|T| consumed", "K", "converged", "final Γ", "Γ@25%", "Γ@50%", "Γ@75%"},
			Notes: []string{
				"paper shape: Γ decreases with |T| and crosses γ=0.01 after a few thousand pairs",
			},
		}
		for _, dim := range s.Dims {
			env, err := NewEnv(kind, dim, s.DatasetN, s.Seed, 0)
			if err != nil {
				return nil, err
			}
			res, trace, err := trainTraced(env, defaultA, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			q := func(frac float64) string {
				if len(trace) == 0 {
					return "-"
				}
				idx := int(frac * float64(len(trace)-1))
				v := trace[idx]
				if math.IsInf(v, 1) {
					return "inf"
				}
				return f(v)
			}
			t.AddRow(fmt.Sprintf("%d", dim), fmt.Sprintf("%d", res.Steps), fmt.Sprintf("%d", res.K),
				fmt.Sprintf("%v", res.Converged), f(res.FinalGamma), q(0.25), q(0.5), q(0.75))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// trainTraced trains a model at resolution a over the environment as
// TrainDefault does, one pair per TrainBatch call, and returns Γ after every
// consumed pair with the final result. TrainBatch ends in the same state
// however a stream is split, so the model is TrainDefault's.
func trainTraced(env *Env, a float64, maxPairs int) (core.TrainingResult, []float64, error) {
	pairs, err := env.Harness.TrainingPairs(maxPairs)
	if err != nil {
		return core.TrainingResult{}, nil, err
	}
	m, err := core.NewModel(env.ModelConfig(a))
	if err != nil {
		return core.TrainingResult{}, nil, err
	}
	var res core.TrainingResult
	trace := make([]float64, 0, len(pairs))
	for i := range pairs {
		if res, err = m.TrainBatch(pairs[i : i+1]); err != nil {
			return core.TrainingResult{}, nil, err
		}
		trace = append(trace, res.FinalGamma)
		if res.Converged {
			break
		}
	}
	return res, trace, nil
}

// Fig07RMSEvsA reproduces Figure 7: the Q1 prediction RMSE as a function of
// the quantization coefficient a, per dataset and dimensionality.
func Fig07RMSEvsA(s Scale) ([]*Table, error) {
	as := []float64{0.05, 0.1, 0.25, 0.5, 0.9}
	var tables []*Table
	for _, kind := range []DatasetKind{R1, R2} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 7 (%s): Q1 RMSE vs. coefficient a", kind),
			Columns: append([]string{"dim"}, mapStrings(as, func(a float64) string { return "a=" + f(a) })...),
			Notes:   []string{"paper shape: RMSE grows as a → 1 (coarser quantization)"},
		}
		for _, dim := range s.Dims {
			env, err := NewEnv(kind, dim, s.DatasetN, s.Seed, 0)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%d", dim)}
			test := env.Harness.Gen.Queries(s.TestQueries)
			for _, a := range as {
				m, _, _, err := env.TrainDefault(a, s.TrainPairs)
				if err != nil {
					return nil, err
				}
				eval, err := EvaluateQ1(env.Harness, m, test)
				if err != nil {
					return nil, err
				}
				row = append(row, f(eval.RMSE))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig08RMSEvsTestSize reproduces Figure 8: the Q1 RMSE as a function of the
// testing-set size |V| at the default resolution a = 0.25.
func Fig08RMSEvsTestSize(s Scale) ([]*Table, error) {
	sizes := []int{s.TestQueries / 4, s.TestQueries / 2, s.TestQueries, s.TestQueries * 2}
	var tables []*Table
	for _, kind := range []DatasetKind{R1, R2} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 8 (%s): Q1 RMSE vs. testing-set size |V| (a=0.1)", kind),
			Columns: append([]string{"dim"}, mapStrings(sizes, func(n int) string { return fmt.Sprintf("|V|=%d", n) })...),
			Notes:   []string{"paper shape: RMSE is flat in |V| (the trained model is stable)"},
		}
		for _, dim := range s.Dims {
			env, err := NewEnv(kind, dim, s.DatasetN, s.Seed, 0)
			if err != nil {
				return nil, err
			}
			m, _, _, err := env.TrainDefault(defaultA, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%d", dim)}
			for _, n := range sizes {
				eval, err := EvaluateQ1(env.Harness, m, env.Harness.Gen.Queries(n))
				if err != nil {
					return nil, err
				}
				row = append(row, f(eval.RMSE))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig09FVU reproduces Figure 9: the Q2 goodness-of-fit (FVU) of LLM, REG and
// PLR versus the coefficient a. REG is the paper's baseline behaviour (a
// single global linear model evaluated inside each subspace); the
// per-subspace OLS is reported as an extra column.
func Fig09FVU(s Scale) ([]*Table, error) {
	as := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	var tables []*Table
	for _, kind := range []DatasetKind{R1, R2} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 9 (%s): Q2 FVU of LLM / REG / PLR vs. coefficient a", kind),
			Columns: []string{"dim", "a", "K", "FVU LLM", "FVU REG", "FVU REG-local", "FVU PLR", "mean |S|"},
			Notes: []string{
				"paper shape: FVU(PLR) <= FVU(LLM) < 1 <= FVU(REG); LLM approaches REG as a → 1",
				"REG-local (per-subspace OLS) is this library's stronger exact baseline, not in the paper",
			},
		}
		for _, dim := range s.Dims {
			env, err := NewEnv(kind, dim, s.DatasetN, s.Seed, 0)
			if err != nil {
				return nil, err
			}
			test := env.Harness.Gen.Queries(s.Q2Queries)
			for _, a := range as {
				m, _, _, err := env.TrainDefault(a, s.TrainPairs)
				if err != nil {
					return nil, err
				}
				eval, err := EvaluateQ2(env.Harness, m, test, Q2Options{
					PLR: plr.Options{MaxBasis: maxBasisFor(m.K())},
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%d", dim), f(a), fmt.Sprintf("%d", m.K()),
					f(eval.LLMFVU), f(eval.REGFVU), f(eval.REGLocalFVU), f(eval.PLRFVU), f(eval.MeanModels))
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig10CoD reproduces Figure 10: (left) the CoD R² of LLM, REG and PLR as a
// function of the number of prototypes K, and (right) the number of
// prototypes K as a function of the coefficient a, over R1.
func Fig10CoD(s Scale) ([]*Table, error) {
	as := []float64{0.05, 0.1, 0.17, 0.25, 0.5, 0.75, 0.9}
	left := &Table{
		Title:   "Figure 10 (left, R1): CoD R² of LLM / REG / PLR vs. prototypes K",
		Columns: []string{"dim", "a", "K", "CoD LLM", "CoD REG", "CoD REG-local", "CoD PLR"},
		Notes: []string{
			"paper shape: CoD(LLM) is positive and grows with K; CoD(REG) is low or negative",
		},
	}
	right := &Table{
		Title:   "Figure 10 (right, R1): prototypes K vs. coefficient a",
		Columns: append([]string{"dim"}, mapStrings(as, func(a float64) string { return "a=" + f(a) })...),
		Notes:   []string{"paper shape: K decreases monotonically as a grows"},
	}
	for _, dim := range s.Dims {
		env, err := NewEnv(R1, dim, s.DatasetN, s.Seed, 0)
		if err != nil {
			return nil, err
		}
		test := env.Harness.Gen.Queries(s.Q2Queries)
		kRow := []string{fmt.Sprintf("%d", dim)}
		for _, a := range as {
			m, _, _, err := env.TrainDefault(a, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			kRow = append(kRow, fmt.Sprintf("%d", m.K()))
			eval, err := EvaluateQ2(env.Harness, m, test, Q2Options{
				PLR: plr.Options{MaxBasis: maxBasisFor(m.K())},
			})
			if err != nil {
				return nil, err
			}
			left.AddRow(fmt.Sprintf("%d", dim), f(a), fmt.Sprintf("%d", m.K()),
				f(eval.LLMCoD), f(eval.REGCoD), f(eval.REGLocalCoD), f(eval.PLRCoD))
		}
		right.AddRow(kRow...)
	}
	return []*Table{left, right}, nil
}

// Fig11DataValue reproduces Figure 11: the data-value prediction RMSE
// (metric A2) of LLM, REG and PLR versus the testing-set size.
func Fig11DataValue(s Scale) ([]*Table, error) {
	sizes := []int{s.Q2Queries / 2, s.Q2Queries, s.Q2Queries * 2}
	var tables []*Table
	for _, kind := range []DatasetKind{R1, R2} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 11 (%s): data-value RMSE v of LLM / REG / PLR vs. #test queries (a=0.1)", kind),
			Columns: []string{"dim", "#queries", "RMSE LLM", "RMSE REG", "RMSE PLR"},
			Notes: []string{
				"paper shape: LLM is comparable to REG (sometimes better); PLR is the most accurate; all flat in |V|",
			},
		}
		for _, dim := range s.Dims {
			env, err := NewEnv(kind, dim, s.DatasetN, s.Seed, 0)
			if err != nil {
				return nil, err
			}
			m, _, _, err := env.TrainDefault(defaultA, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			for _, n := range sizes {
				eval, err := EvaluateDataValue(env.Harness, m, env.Harness.Gen.Queries(n), Q2Options{
					PLR: plr.Options{MaxBasis: maxBasisFor(m.K())},
				}, 5, s.Seed+101)
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%d", dim), fmt.Sprintf("%d", n),
					f(eval.LLMRMSE), f(eval.REGRMSE), f(eval.PLRRMSE))
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig12Scalability reproduces Figure 12: the Q1 and Q2 execution times of the
// LLM model versus the exact REG (and PLR for Q2) as the dataset grows. The
// paper sweeps 10⁷…10¹⁰ tuples on a PostgreSQL server; here the sweep is
// scaled to in-memory sizes, which preserves the shape: exact execution cost
// grows with the data size while the LLM's prediction cost is flat.
func Fig12Scalability(s Scale) ([]*Table, error) {
	sizes := []int{s.DatasetN / 4, s.DatasetN, s.DatasetN * 4}
	q1 := &Table{
		Title:   "Figure 12 (left, R2): Q1 execution time (ms/query) vs. dataset size",
		Columns: []string{"dim", "#points", "LLM (ms)", "exact Q1 (ms)", "speedup"},
		Notes:   []string{"paper shape: LLM flat and orders of magnitude below the exact executor"},
	}
	q2 := &Table{
		Title:   "Figure 12 (right, R2): Q2 execution time (ms/query) vs. dataset size",
		Columns: []string{"dim", "#points", "LLM (ms)", "REG (ms)", "PLR (ms)"},
		Notes:   []string{"paper shape: LLM flat; REG and PLR grow with the dataset"},
	}
	for _, dim := range s.Dims {
		for _, n := range sizes {
			// A wider radius keeps subspaces populated even at the smallest
			// sweep size, so the timing comparison always has work to do.
			env, err := NewEnv(R2, dim, n, s.Seed, 3)
			if err != nil {
				return nil, err
			}
			m, _, _, err := env.TrainDefault(defaultA, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			evalQ1, err := EvaluateQ1(env.Harness, m, env.Harness.Gen.Queries(s.TestQueries/2))
			if err != nil {
				return nil, err
			}
			speedup := float64(evalQ1.ExactTime) / float64(evalQ1.ModelTime)
			q1.AddRow(fmt.Sprintf("%d", dim), fmt.Sprintf("%d", n),
				dur(evalQ1.ModelTime), dur(evalQ1.ExactTime), f(speedup))
			evalQ2, err := EvaluateQ2(env.Harness, m, env.Harness.Gen.Queries(s.Q2Queries), Q2Options{
				PLR:         plr.Options{MaxBasis: maxBasisFor(m.K())},
				MinSubspace: dim + 2,
			})
			if err != nil {
				return nil, err
			}
			q2.AddRow(fmt.Sprintf("%d", dim), fmt.Sprintf("%d", n),
				dur(evalQ2.LLMTime), dur(evalQ2.REGTime), dur(evalQ2.PLRTime))
		}
	}
	return []*Table{q1, q2}, nil
}

// Fig13RadiusImpact reproduces Figure 13: (left) the Q1 RMSE versus the mean
// radius µθ and (right) the number of training pairs required versus the
// resulting CoD, over R1.
func Fig13RadiusImpact(s Scale) ([]*Table, error) {
	thetas := []float64{0.05, 0.1, 0.2, 0.4, 0.7, 0.99}
	left := &Table{
		Title:   "Figure 13 (left, R1): Q1 RMSE vs. mean radius µθ (a=0.1)",
		Columns: append([]string{"dim"}, mapStrings(thetas, func(v float64) string { return "µθ=" + f(v) })...),
		Notes:   []string{"paper shape: RMSE decreases as µθ grows (answers tend to the global mean)"},
	}
	right := &Table{
		Title:   "Figure 13 (right, R1): training size |T| and CoD vs. µθ (a=0.1)",
		Columns: []string{"dim", "µθ", "|T| used", "K", "CoD LLM"},
		Notes:   []string{"paper shape: small µθ needs many pairs and keeps CoD high; large µθ converges fast but CoD collapses"},
	}
	for _, dim := range s.Dims {
		rmseRow := []string{fmt.Sprintf("%d", dim)}
		for _, theta := range thetas {
			env, err := NewEnv(R1, dim, s.DatasetN, s.Seed, theta)
			if err != nil {
				return nil, err
			}
			m, res, _, err := env.TrainDefault(defaultA, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			evalQ1, err := EvaluateQ1(env.Harness, m, env.Harness.Gen.Queries(s.TestQueries/2))
			if err != nil {
				return nil, err
			}
			rmseRow = append(rmseRow, f(evalQ1.RMSE))
			evalQ2, err := EvaluateQ2(env.Harness, m, env.Harness.Gen.Queries(s.Q2Queries/2+1), Q2Options{SkipPLR: true})
			if err != nil {
				return nil, err
			}
			right.AddRow(fmt.Sprintf("%d", dim), f(theta), fmt.Sprintf("%d", res.Steps),
				fmt.Sprintf("%d", m.K()), f(evalQ2.LLMCoD))
		}
		left.AddRow(rmseRow...)
	}
	return []*Table{left, right}, nil
}

// Fig14RadiusTrajectory reproduces Figure 14: the joint trajectory of
// (|T|, RMSE, CoD) as µθ sweeps from small to large, per dimensionality,
// over R1.
func Fig14RadiusTrajectory(s Scale) ([]*Table, error) {
	thetas := []float64{0.05, 0.1, 0.2, 0.4, 0.7, 0.99}
	t := &Table{
		Title:   "Figure 14 (R1): trajectory of (|T|, RMSE, CoD) as µθ grows (a=0.1)",
		Columns: []string{"dim", "µθ", "|T| used", "RMSE e", "CoD R²"},
		Notes: []string{
			"paper shape: growing µθ shrinks |T| and RMSE while CoD degrades toward 0 or below",
		},
	}
	for _, dim := range s.Dims {
		for _, theta := range thetas {
			env, err := NewEnv(R1, dim, s.DatasetN, s.Seed, theta)
			if err != nil {
				return nil, err
			}
			m, res, _, err := env.TrainDefault(defaultA, s.TrainPairs)
			if err != nil {
				return nil, err
			}
			evalQ1, err := EvaluateQ1(env.Harness, m, env.Harness.Gen.Queries(s.TestQueries/2))
			if err != nil {
				return nil, err
			}
			evalQ2, err := EvaluateQ2(env.Harness, m, env.Harness.Gen.Queries(s.Q2Queries/2+1), Q2Options{SkipPLR: true})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", dim), f(theta), fmt.Sprintf("%d", res.Steps), f(evalQ1.RMSE), f(evalQ2.LLMCoD))
		}
	}
	return []*Table{t}, nil
}

// AblationLearning compares the solver and learning-rate choices where the
// implementation departs from the paper: RLS (core.SolverRLS, the default)
// vs. the paper's SGD rule, and the hyperbolic rate over each prototype's
// win count (the default) vs. over the global step count.
func AblationLearning(s Scale) ([]*Table, error) {
	t := &Table{
		Title:   "Ablation (R1, d=2): coefficient solver and learning-rate schedule",
		Columns: []string{"variant", "K", "|T| used", "Q1 RMSE", "FVU LLM"},
		Notes:   []string{"RLS tightens both Q1 RMSE and Q2 FVU relative to the first-order SGD rule"},
	}
	env, err := NewEnv(R1, 2, s.DatasetN, s.Seed, 0)
	if err != nil {
		return nil, err
	}
	test := env.Harness.Gen.Queries(s.TestQueries)
	q2test := env.Harness.Gen.Queries(s.Q2Queries)
	// Every variant trains on the same stream, so a row's difference from
	// the default is the variant's alone.
	pairs, err := env.Harness.TrainingPairs(s.TrainPairs)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"rls + hyperbolic (default)", func(c *core.Config) {}},
		{"sgd (paper Theorem 4)", func(c *core.Config) { c.CoefficientSolver = core.SolverSGD }},
		{"rls + global-step rate", func(c *core.Config) { c.RateByPrototype = false }},
	}
	for _, v := range variants {
		cfg := env.ModelConfig(0.1)
		v.mut(&cfg)
		m, err := core.NewModel(cfg)
		if err != nil {
			return nil, err
		}
		res, err := m.TrainBatch(pairs)
		if err != nil {
			return nil, err
		}
		evalQ1, err := EvaluateQ1(env.Harness, m, test)
		if err != nil {
			return nil, err
		}
		evalQ2, err := EvaluateQ2(env.Harness, m, q2test, Q2Options{SkipPLR: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, fmt.Sprintf("%d", m.K()), fmt.Sprintf("%d", res.Steps), f(evalQ1.RMSE), f(evalQ2.LLMFVU))
	}
	return []*Table{t}, nil
}

// GlobalFitBaseline reports the whole-dataset FVU of a single global linear
// model for R1 and R2, the figure the paper quotes to motivate local models
// (FVU 4.68 for R1 and 12.45 for R2 in the paper's datasets).
func GlobalFitBaseline(s Scale) ([]*Table, error) {
	t := &Table{
		Title:   "Global linear fit over the whole dataset (Section VI-A motivation)",
		Columns: []string{"dataset", "dim", "#points", "FVU(global OLS evaluated per subspace, mean)", "in-sample FVU"},
		Notes:   []string{"paper: a single global linear fit does not explain R1/R2 (their quoted FVUs are 4.68 and 12.45)"},
	}
	for _, kind := range []DatasetKind{R1, R2} {
		for _, dim := range s.Dims {
			env, err := NewEnv(kind, dim, s.DatasetN, s.Seed, 0)
			if err != nil {
				return nil, err
			}
			global, err := env.Harness.Exec.GlobalRegression()
			if err != nil {
				return nil, err
			}
			// Average the global model's FVU over random subspaces.
			var acc stats.Running
			for _, q := range env.Harness.Gen.Queries(s.Q2Queries) {
				g, err := GoodnessOverSubspace(env.Harness.Exec, toRadius(q), global.Predict)
				if err != nil {
					continue
				}
				if finite(g.FVU) {
					acc.Add(g.FVU)
				}
			}
			t.AddRow(string(kind), fmt.Sprintf("%d", dim), fmt.Sprintf("%d", env.Dataset.Len()),
				f(acc.Mean()), f(global.FVU))
		}
	}
	return []*Table{t}, nil
}

func mapStrings[T any](in []T, fn func(T) string) []string {
	out := make([]string, len(in))
	for i, v := range in {
		out[i] = fn(v)
	}
	return out
}

func maxBasisFor(k int) int {
	if k < 4 {
		return 4
	}
	if k > 20 {
		return 20
	}
	return k
}

package experiments

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"llmq/internal/core"
	"llmq/internal/exec"
	"llmq/internal/experiments/internal/plr"
	"llmq/internal/experiments/internal/stats"
	"llmq/internal/workload"
)

// toRadius is the exact selection a model query names.
func toRadius(q core.Query) exec.RadiusQuery {
	return exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
}

// Q1Eval reports the outcome of evaluating Q1 predictions over a testing set
// (the paper's A1 metric plus efficiency numbers).
type Q1Eval struct {
	// RMSE is the root mean squared error of the predicted mean values.
	RMSE float64
	// N is the number of evaluated queries (empty subspaces are skipped).
	N int
	// ModelTime and ExactTime are the average per-query execution times of
	// the LLM prediction and the exact in-DBMS execution.
	ModelTime time.Duration
	ExactTime time.Duration
}

// EvaluateQ1 compares the model's Q1 predictions with exact answers over the
// given queries.
func EvaluateQ1(h *workload.Harness, m *core.Model, queries []core.Query) (Q1Eval, error) {
	var actual, predicted []float64
	var modelTime, exactTime time.Duration
	for _, q := range queries {
		res, err := h.Exec.MeanCtx(context.Background(), toRadius(q))
		if errors.Is(err, exec.ErrEmptySubspace) {
			continue
		}
		if err != nil {
			return Q1Eval{}, err
		}
		exactTime += res.Elapsed
		start := time.Now()
		yhat, err := m.PredictMean(q)
		if err != nil {
			return Q1Eval{}, err
		}
		modelTime += time.Since(start)
		actual = append(actual, res.Mean)
		predicted = append(predicted, yhat)
	}
	if len(actual) == 0 {
		return Q1Eval{}, workload.ErrNoUsableQueries
	}
	rmse, err := stats.RMSE(actual, predicted)
	if err != nil {
		return Q1Eval{}, err
	}
	n := len(actual)
	return Q1Eval{
		RMSE:      rmse,
		N:         n,
		ModelTime: modelTime / time.Duration(n),
		ExactTime: exactTime / time.Duration(n),
	}, nil
}

// Q2Eval reports goodness-of-fit and efficiency of the competitors over a
// testing set of Q2 queries, all scored on the same data subspaces:
//
//   - LLM: the trained model's list of local linear models (no data access
//     to answer; scored against the subspace data afterwards),
//   - REG: a single global linear regression fitted once over the whole
//     relation and evaluated inside each subspace — this matches the
//     behaviour of the paper's REG baseline, whose reported FVU exceeds 1,
//   - REGLocal: a per-subspace OLS fit (a strictly stronger exact baseline
//     than the paper's, included for completeness),
//   - PLR: the piecewise linear regression baseline fitted per subspace.
type Q2Eval struct {
	// FVU and CoD are averaged over the evaluated queries, per method.
	LLMFVU, REGFVU, REGLocalFVU, PLRFVU float64
	LLMCoD, REGCoD, REGLocalCoD, PLRCoD float64
	// MeanModels is the average number |S| of local models returned per
	// query by the LLM method.
	MeanModels float64
	// N is the number of evaluated queries.
	N int
	// Per-query average execution times. REGTime measures the per-subspace
	// exact regression (selection + OLS), the cost an in-DBMS user pays for
	// an exact Q2 answer.
	LLMTime, REGTime, PLRTime time.Duration
}

// Q2Options configures EvaluateQ2.
type Q2Options struct {
	// PLR configures the piecewise baseline; its MaxBasis is typically set
	// to the trained model's K to mirror the paper's "max models = K" rule.
	PLR plr.Options
	// SkipPLR disables the (expensive) PLR baseline.
	SkipPLR bool
	// MinSubspace skips queries selecting fewer tuples than this (a
	// regression needs at least d+2 points to be meaningful). Defaults to
	// 2·(d+2) when zero.
	MinSubspace int
}

// EvaluateQ2 scores the three methods over the same data subspaces.
func EvaluateQ2(h *workload.Harness, m *core.Model, queries []core.Query, opts Q2Options) (Q2Eval, error) {
	dim := h.Exec.Dim()
	minSub := opts.MinSubspace
	if minSub <= 0 {
		minSub = 2 * (dim + 2)
	}
	var out Q2Eval
	var llmFVU, regFVU, regLocalFVU, plrFVU stats.Running
	var llmCoD, regCoD, regLocalCoD, plrCoD stats.Running
	var models stats.Running
	global, err := h.Exec.GlobalRegression()
	if err != nil {
		return Q2Eval{}, err
	}
	for _, q := range queries {
		rq := toRadius(q)
		xs, us, err := h.Exec.SubspaceValues(rq)
		if errors.Is(err, exec.ErrEmptySubspace) {
			continue
		}
		if err != nil {
			return Q2Eval{}, err
		}
		if len(xs) < minSub {
			continue
		}
		// REG: exact global OLS over the subspace.
		regStart := time.Now()
		reg, err := h.Exec.RegressionCtx(context.Background(), rq)
		if err != nil {
			continue
		}
		out.REGTime += time.Since(regStart)

		// LLM: list of local models, no data access for the answer itself;
		// the goodness of fit is then scored against the subspace data.
		llmStart := time.Now()
		locals, err := m.Regression(q)
		if err != nil {
			return Q2Eval{}, err
		}
		out.LLMTime += time.Since(llmStart)

		// PLR baseline.
		var plrModel *plr.Model
		if !opts.SkipPLR {
			plrStart := time.Now()
			plrModel, err = plr.Fit(xs, us, opts.PLR)
			if err != nil {
				plrModel = nil
			} else {
				out.PLRTime += time.Since(plrStart)
			}
		}

		globalPred := make([]float64, len(xs))
		localPred := make([]float64, len(xs))
		var plrPred []float64
		if plrModel != nil {
			plrPred = make([]float64, len(xs))
		}
		for i, x := range xs {
			globalPred[i] = global.Predict(x)
			localPred[i] = reg.Predict(x)
			if plrModel != nil {
				plrPred[i] = plrModel.Predict(x)
			}
		}
		// LLM goodness of fit: the piecewise predictor induced by the list S
		// of local models (each point predicted by the local model whose
		// prototype is closest), scored over the whole subspace so it is
		// directly comparable with the baselines.
		if fvu, cod, ok := scoreLocalModels(locals, xs, us); ok {
			llmFVU.Add(fvu)
			llmCoD.Add(cod)
		}
		if g, err := stats.Fit(us, globalPred); err == nil && finite(g.FVU) {
			regFVU.Add(g.FVU)
			regCoD.Add(g.CoD)
		}
		if g, err := stats.Fit(us, localPred); err == nil && finite(g.FVU) {
			regLocalFVU.Add(g.FVU)
			regLocalCoD.Add(g.CoD)
		}
		if plrModel != nil {
			if g, err := stats.Fit(us, plrPred); err == nil && finite(g.FVU) {
				plrFVU.Add(g.FVU)
				plrCoD.Add(g.CoD)
			}
		}
		models.Add(float64(len(locals)))
		out.N++
	}
	if out.N == 0 {
		return Q2Eval{}, workload.ErrNoUsableQueries
	}
	out.LLMFVU, out.REGFVU, out.REGLocalFVU, out.PLRFVU = llmFVU.Mean(), regFVU.Mean(), regLocalFVU.Mean(), plrFVU.Mean()
	out.LLMCoD, out.REGCoD, out.REGLocalCoD, out.PLRCoD = llmCoD.Mean(), regCoD.Mean(), regLocalCoD.Mean(), plrCoD.Mean()
	out.MeanModels = models.Mean()
	n := time.Duration(out.N)
	out.LLMTime /= n
	out.REGTime /= n
	if !opts.SkipPLR {
		out.PLRTime /= n
	}
	return out, nil
}

// scoreLocalModels computes the Q2 goodness-of-fit of the list S of local
// models over the subspace data: each point is predicted by the local model
// whose prototype centre is closest (the partition induced by the
// quantization, i.e. the piecewise-linear predictor S describes), and one
// FVU/CoD is computed over the whole subspace so the number is directly
// comparable with REG and PLR scored on the same data. It reports ok=false
// when nothing can be scored.
func scoreLocalModels(locals []core.LocalLinear, xs [][]float64, us []float64) (fvu, cod float64, ok bool) {
	if len(locals) == 0 || len(xs) == 0 {
		return 0, 0, false
	}
	pred := make([]float64, len(xs))
	for i, x := range xs {
		best := 0
		bestDist := math.Inf(1)
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
		pred[i] = locals[best].Predict(x)
	}
	g, err := stats.Fit(us, pred)
	if err != nil || !finite(g.FVU) {
		return 0, 0, false
	}
	return g.FVU, g.CoD, true
}

// DataValueEval reports the data-value prediction accuracy (metric A2,
// Figure 11) of the three methods over points drawn from test subspaces.
type DataValueEval struct {
	LLMRMSE, REGRMSE, PLRRMSE float64
	// N is the number of evaluated points.
	N int
}

// EvaluateDataValue predicts u = g(x) for points inside each test query's
// subspace with all three methods and reports their RMSE.
func EvaluateDataValue(h *workload.Harness, m *core.Model, queries []core.Query, opts Q2Options, pointsPerQuery int, seed int64) (DataValueEval, error) {
	if pointsPerQuery <= 0 {
		pointsPerQuery = 5
	}
	dim := h.Exec.Dim()
	minSub := opts.MinSubspace
	if minSub <= 0 {
		minSub = 2 * (dim + 2)
	}
	rng := rand.New(rand.NewSource(seed))
	var actual, llmPred, regPred, plrPred []float64
	for _, q := range queries {
		rq := toRadius(q)
		xs, us, err := h.Exec.SubspaceValues(rq)
		if errors.Is(err, exec.ErrEmptySubspace) {
			continue
		}
		if err != nil {
			return DataValueEval{}, err
		}
		if len(xs) < minSub {
			continue
		}
		reg, err := h.Exec.RegressionCtx(context.Background(), rq)
		if err != nil {
			continue
		}
		var plrModel *plr.Model
		if !opts.SkipPLR {
			if pm, err := plr.Fit(xs, us, opts.PLR); err == nil {
				plrModel = pm
			}
		}
		for k := 0; k < pointsPerQuery; k++ {
			i := rng.Intn(len(xs))
			x, u := xs[i], us[i]
			uhat, err := m.PredictValue(q, x)
			if err != nil {
				return DataValueEval{}, err
			}
			actual = append(actual, u)
			llmPred = append(llmPred, uhat)
			regPred = append(regPred, reg.Predict(x))
			if plrModel != nil {
				plrPred = append(plrPred, plrModel.Predict(x))
			} else {
				plrPred = append(plrPred, reg.Predict(x))
			}
		}
	}
	if len(actual) == 0 {
		return DataValueEval{}, workload.ErrNoUsableQueries
	}
	out := DataValueEval{N: len(actual)}
	var err error
	if out.LLMRMSE, err = stats.RMSE(actual, llmPred); err != nil {
		return DataValueEval{}, err
	}
	if out.REGRMSE, err = stats.RMSE(actual, regPred); err != nil {
		return DataValueEval{}, err
	}
	if out.PLRRMSE, err = stats.RMSE(actual, plrPred); err != nil {
		return DataValueEval{}, err
	}
	return out, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// GoodnessOverSubspace scores arbitrary predictions against the actual output
// values of the subspace selected by q. The predict callback receives each
// input vector in the subspace.
func GoodnessOverSubspace(e *exec.Executor, q exec.RadiusQuery, predict func(x []float64) float64) (stats.GoodnessOfFit, error) {
	xs, us, err := e.SubspaceValues(q)
	if err != nil {
		return stats.GoodnessOfFit{}, err
	}
	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i] = predict(x)
	}
	return stats.Fit(us, preds)
}

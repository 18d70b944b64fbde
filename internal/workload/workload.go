// Package workload generates analytics query workloads and drives the
// train/evaluate loop of the paper's system context (Figure 2): random dNN
// queries with uniformly distributed centres and Gaussian radii are executed
// exactly against the DBMS substrate to obtain (query, answer) pairs; a
// prefix T of the stream trains the LLM model and a disjoint set V evaluates
// predictability (RMSE), goodness of fit (FVU, CoD) and efficiency.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"llmq/internal/core"
	"llmq/internal/exec"
	"llmq/internal/plr"
	"llmq/internal/stats"
)

// ErrNoUsableQueries is returned when every generated query selected an
// empty data subspace.
var ErrNoUsableQueries = errors.New("workload: no generated query selected any tuples")

// GenConfig configures the random query generator.
type GenConfig struct {
	// Dim is the dimensionality of the query centres.
	Dim int
	// CenterLo and CenterHi bound each centre coordinate (uniform).
	CenterLo, CenterHi float64
	// ThetaMean and ThetaStdDev parameterize the Gaussian radius
	// θ ~ N(µθ, σθ²); draws are truncated to be strictly positive.
	ThetaMean, ThetaStdDev float64
	// Seed seeds the deterministic generator.
	Seed int64
}

// Validate checks the generator configuration.
func (c GenConfig) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("workload: Dim must be positive, got %d", c.Dim)
	}
	if !(c.CenterHi > c.CenterLo) {
		return fmt.Errorf("workload: need CenterHi > CenterLo, got [%v,%v]", c.CenterLo, c.CenterHi)
	}
	if c.ThetaMean <= 0 {
		return fmt.Errorf("workload: ThetaMean must be positive, got %v", c.ThetaMean)
	}
	if c.ThetaStdDev < 0 {
		return fmt.Errorf("workload: ThetaStdDev must be non-negative, got %v", c.ThetaStdDev)
	}
	return nil
}

// Generator produces random analytics queries.
type Generator struct {
	cfg GenConfig
	rng *rand.Rand
}

// NewGenerator creates a generator from the configuration.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the generator configuration.
func (g *Generator) Config() GenConfig { return g.cfg }

// sampleTheta draws one radius θ ~ N(µθ, σθ²) truncated to θ > 0 by
// resampling a magnitude around the mean — the single radius rule shared
// by the stationary and drifting generators, so the two workloads can
// never silently diverge in their radius distribution.
func (c GenConfig) sampleTheta(rng *rand.Rand) float64 {
	theta := c.ThetaMean + c.ThetaStdDev*rng.NormFloat64()
	if theta <= 0 {
		theta = c.ThetaMean * (0.5 + 0.5*rng.Float64())
	}
	return theta
}

// Next returns the next random query.
func (g *Generator) Next() core.Query {
	center := make([]float64, g.cfg.Dim)
	span := g.cfg.CenterHi - g.cfg.CenterLo
	for j := range center {
		center[j] = g.cfg.CenterLo + span*g.rng.Float64()
	}
	return core.Query{Center: center, Theta: g.cfg.sampleTheta(g.rng)}
}

// Queries returns n random queries.
func (g *Generator) Queries(n int) []core.Query {
	out := make([]core.Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// QuerySource produces an analytics query stream: the stationary Generator
// or the non-stationary DriftingGenerator. Sources are stateful and
// deterministic for their seed.
type QuerySource interface {
	// Config returns the source's base generator configuration.
	Config() GenConfig
	// Next returns the next query of the stream.
	Next() core.Query
	// Queries returns the next n queries of the stream.
	Queries(n int) []core.Query
}

// DriftConfig parameterizes a non-stationary query workload: the centre
// window slides through the input space as the stream advances — the
// concept-drift regime that bounded-capacity training
// (core.Config.MaxPrototypes) exists to track. The window ping-pongs along
// the diagonal of [CenterLo, CenterHi], so arbitrarily long streams keep
// moving instead of walking off the data.
type DriftConfig struct {
	// Window is the edge length of the sliding centre window, as a fraction
	// of the [CenterLo, CenterHi] span (0 < Window ≤ 1).
	Window float64
	// Velocity is the window displacement per generated query, as a
	// fraction of the span: after 1/Velocity queries the window has crossed
	// the space once.
	Velocity float64
}

// Validate checks the drift configuration.
func (c DriftConfig) Validate() error {
	if c.Window <= 0 || c.Window > 1 {
		return fmt.Errorf("workload: Window must be in (0, 1], got %v", c.Window)
	}
	if c.Velocity <= 0 {
		return fmt.Errorf("workload: Velocity must be positive, got %v", c.Velocity)
	}
	return nil
}

// DriftingGenerator produces a non-stationary query stream: query centres
// are uniform inside a window that slides along the diagonal of the centre
// box as queries are drawn; radii follow the base configuration's Gaussian.
type DriftingGenerator struct {
	cfg   GenConfig
	drift DriftConfig
	rng   *rand.Rand
	t     int
}

// NewDriftingGenerator creates a drifting source from a base generator
// configuration and a drift profile.
func NewDriftingGenerator(cfg GenConfig, drift DriftConfig) (*DriftingGenerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := drift.Validate(); err != nil {
		return nil, err
	}
	return &DriftingGenerator{cfg: cfg, drift: drift, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the base generator configuration.
func (g *DriftingGenerator) Config() GenConfig { return g.cfg }

// Position returns the window's current low corner position in [0, 1−Window]
// (fraction of the centre span) — checkpoints use it to evaluate against
// the stream's current region.
func (g *DriftingGenerator) Position() float64 {
	v := math.Mod(g.drift.Velocity*float64(g.t), 2)
	if v > 1 {
		v = 2 - v
	}
	return v * (1 - g.drift.Window)
}

// Next returns the next query and advances the window.
func (g *DriftingGenerator) Next() core.Query {
	span := g.cfg.CenterHi - g.cfg.CenterLo
	lo := g.cfg.CenterLo + g.Position()*span
	w := g.drift.Window * span
	g.t++
	center := make([]float64, g.cfg.Dim)
	for j := range center {
		center[j] = lo + w*g.rng.Float64()
	}
	return core.Query{Center: center, Theta: g.cfg.sampleTheta(g.rng)}
}

// Queries returns the next n queries of the drifting stream.
func (g *DriftingGenerator) Queries(n int) []core.Query {
	out := make([]core.Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Harness couples a query source with the exact executor over one
// relation; it produces training pairs and evaluates trained models against
// the exact baselines.
type Harness struct {
	Exec *exec.Executor
	Gen  QuerySource
}

// NewHarness builds a harness. Both the executor and query source are
// required, and their dimensionalities must agree.
func NewHarness(e *exec.Executor, g QuerySource) (*Harness, error) {
	if e == nil || g == nil {
		return nil, errors.New("workload: executor and query source are required")
	}
	if e.Dim() != g.Config().Dim {
		return nil, fmt.Errorf("workload: executor has %d input attributes, generator dim is %d",
			e.Dim(), g.Config().Dim)
	}
	return &Harness{Exec: e, Gen: g}, nil
}

func toRadius(q core.Query) exec.RadiusQuery {
	return exec.RadiusQuery{Center: q.Center, Theta: q.Theta}
}

// TrainingPairs executes n random queries exactly and returns the resulting
// (query, answer) pairs. Queries whose subspace is empty are skipped (they
// produce no answer in the paper's setting either); the method keeps
// generating until n usable pairs exist or 10·n attempts have been made.
//
// Queries are generated sequentially (the generator stream stays
// deterministic for a given seed) but executed in chunks through the
// executor's parallel batch path, so producing the training stream scales
// with the available cores. Each chunk draws exactly the number of pairs
// still needed, so both the resulting pairs AND the generator stream are
// identical to a one-query-at-a-time loop — callers that keep drawing from
// the same generator (e.g. for evaluation sets) see the same queries either
// way.
func (h *Harness) TrainingPairs(n int) ([]core.TrainingPair, error) {
	pairs := make([]core.TrainingPair, 0, n)
	attempts := 0
	for len(pairs) < n && attempts < 10*n {
		chunk := n - len(pairs)
		if rem := 10*n - attempts; chunk > rem {
			chunk = rem
		}
		queries := h.Gen.Queries(chunk)
		attempts += chunk
		rqs := make([]exec.RadiusQuery, len(queries))
		for i, q := range queries {
			rqs[i] = toRadius(q)
		}
		results, errs := h.Exec.MeanBatchCtx(context.Background(), rqs)
		for i := range queries {
			if len(pairs) == n {
				break
			}
			if errors.Is(errs[i], exec.ErrEmptySubspace) {
				continue
			}
			if errs[i] != nil {
				return nil, errs[i]
			}
			pairs = append(pairs, core.TrainingPair{Query: queries[i], Answer: results[i].Mean})
		}
	}
	if len(pairs) == 0 {
		return nil, ErrNoUsableQueries
	}
	return pairs, nil
}

// TrainModel generates up to maxPairs training pairs and trains a fresh
// model with the given configuration, returning the model, the training
// result and the pairs actually produced.
func (h *Harness) TrainModel(cfg core.Config, maxPairs int) (*core.Model, core.TrainingResult, []core.TrainingPair, error) {
	pairs, err := h.TrainingPairs(maxPairs)
	if err != nil {
		return nil, core.TrainingResult{}, nil, err
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, core.TrainingResult{}, nil, err
	}
	// Bulk ingestion of a fresh model: TrainBatch applies the identical
	// sequential updates as per-pair Observe calls but publishes one serving
	// snapshot for the whole stream instead of one per pair.
	res, err := m.TrainBatch(pairs)
	if err != nil {
		return nil, core.TrainingResult{}, nil, err
	}
	return m, res, pairs, nil
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
func (h *Harness) EvaluateQ1(m *core.Model, queries []core.Query) (Q1Eval, error) {
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
		return Q1Eval{}, ErrNoUsableQueries
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
func (h *Harness) EvaluateQ2(m *core.Model, queries []core.Query, opts Q2Options) (Q2Eval, error) {
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
		if fvu, cod, ok := scoreLocalModels(locals, xs, us, dim); ok {
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
		return Q2Eval{}, ErrNoUsableQueries
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
func scoreLocalModels(locals []core.LocalLinear, xs [][]float64, us []float64, dim int) (fvu, cod float64, ok bool) {
	if len(locals) == 0 || len(xs) == 0 {
		return 0, 0, false
	}
	_ = dim
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

// predictWithLocals fuses a list of local linear models into a point
// prediction using their normalized overlap weights; extrapolated answers
// (single model with weight 0) fall back to that model.
func predictWithLocals(locals []core.LocalLinear, x []float64) float64 {
	if len(locals) == 1 && locals[0].Weight == 0 {
		return locals[0].Predict(x)
	}
	var sum, wsum float64
	for _, lm := range locals {
		sum += lm.Weight * lm.Predict(x)
		wsum += lm.Weight
	}
	if wsum == 0 {
		// Degenerate: average the local models.
		for _, lm := range locals {
			sum += lm.Predict(x)
		}
		return sum / float64(len(locals))
	}
	return sum
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
func (h *Harness) EvaluateDataValue(m *core.Model, queries []core.Query, opts Q2Options, pointsPerQuery int, seed int64) (DataValueEval, error) {
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
		return DataValueEval{}, ErrNoUsableQueries
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

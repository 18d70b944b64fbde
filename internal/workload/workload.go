// Package workload generates analytics query workloads and drives the
// training half of the paper's system context (Figure 2): random dNN
// queries with uniformly distributed centres and Gaussian radii are executed
// exactly against the DBMS substrate to obtain (query, answer) pairs, and a
// prefix T of the stream trains the LLM model. Scoring a trained model on a
// disjoint set V (RMSE, FVU, CoD, the REG and PLR baselines) is evaluation
// machinery the server never runs; it lives in internal/experiments.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"llmq/internal/core"
	"llmq/internal/exec"
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
// relation; it produces training pairs and trains models from them.
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

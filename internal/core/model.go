package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Solver selects how the per-prototype LLM coefficients (y_k, b_k) are
// estimated from the stream of winning pairs. Both solvers minimize the same
// conditional EPE objective H of Eq. (8).
type Solver int

const (
	// SolverRLS estimates the coefficients with per-prototype recursive
	// least squares: the exact sequential solution of the local EPE, at
	// O((d+2)²) state per prototype. It is the library default because the
	// first-order SGD rule needs far more queries than a typical training
	// stream provides before the local slopes converge.
	SolverRLS Solver = iota
	// SolverSGD applies the paper's Theorem 4 update rule verbatim
	// (first-order SGD at the hyperbolic learning rate).
	SolverSGD
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case SolverRLS:
		return "rls"
	case SolverSGD:
		return "sgd"
	default:
		return "unknown"
	}
}

// Config configures an LLM model. Every field is one a model file carries:
// a Config that NewModel accepts comes back from Save→Load (solver state
// aside), Checkpoint→LoadSnapshot and a WAL replay as the Config the model
// reports, so a model trains the same way after every restart.
//
// The learning rate is the paper's hyperbolic η_t = 1/(t+1) (Section II-B:
// slowly decreasing, Ση_t = ∞ and Ση_t² < ∞), with t the winner's win count
// (RateByPrototype) or the global step count.
type Config struct {
	// Dim is the input dimensionality d (query vectors live in R^(d+1)).
	Dim int
	// ResolutionA is the quantization coefficient a ∈ (0, 1] from which the
	// vigilance ρ = a(√d + 1) is derived (Section IV). The paper's default
	// is 0.25. NewModel folds it into Vigilance, and the model's Config
	// reports it as 0: a model file records ρ alone.
	ResolutionA float64
	// Vigilance overrides the derived ρ when positive; leave at 0 to use
	// ResolutionA.
	Vigilance float64
	// Gamma is the convergence threshold γ for the training termination
	// criterion Γ = max(Γ^J, Γ^H) ≤ γ. The paper's default is 0.01.
	Gamma float64
	// InitInterceptWithAnswer controls how a newly spawned prototype's local
	// intercept y_K is initialized. The paper's Algorithm 1 initializes it to
	// zero; initializing with the observed answer (the default here) is a
	// conservative refinement that speeds convergence with a decaying global
	// learning rate, and a departure from the paper. Set to false for strict
	// paper behaviour.
	InitInterceptWithAnswer bool
	// RateByPrototype takes the learning rate's t from the winner's own win
	// count instead of the global step counter. The paper states a single
	// global rate η_t = 1/(t+1); with a growing prototype set that starves
	// prototypes spawned late in the stream, so the default here (set by
	// DefaultConfig) is the standard per-prototype AVQ rate. Both satisfy
	// the Robbins–Monro conditions; the difference is measured by the
	// learning-rate ablation experiment.
	RateByPrototype bool
	// CoefficientSolver selects how the LLM coefficients are learned; see
	// Solver. The zero value is SolverRLS.
	CoefficientSolver Solver
	// MinGammaSteps is the minimum number of training pairs consumed before
	// the termination criterion may fire (the criterion is meaningless while
	// K is still growing from a cold start). Values <= 0 default to 100.
	MinGammaSteps int
	// ConvergenceWindow is the number of consecutive steps for which
	// Γ ≤ γ must hold before training terminates. A single SGD step can have
	// an arbitrarily small parameter change simply because its residual was
	// small, so requiring a run of quiet steps makes the stopping rule a
	// faithful, robust reading of the paper's "Γ is (stochastically) trapped"
	// observation. Values <= 0 default to 25.
	ConvergenceWindow int
	// MaxPrototypes, when positive, caps the live prototype count K:
	// whenever a spawn pushes K past the cap, the lowest-scoring prototypes
	// under the Eviction policy are evicted (or merged, see MergeOnEvict)
	// until K is back inside a small hysteresis band below the cap, so
	// evictions batch and the epoch rebuild they trigger amortizes. The cap
	// is what keeps a model serving a non-stationary stream bounded: stale
	// prototypes are retired instead of accumulating forever. Zero means
	// unbounded (the paper's setting). A model that intends to track drift
	// indefinitely should also keep the termination criterion from freezing
	// it (e.g. a very small Gamma or a large MinGammaSteps), since a
	// converged model ignores further observations. The cap is at most
	// wal.MaxCapacity, the largest a WAL capacity record carries.
	MaxPrototypes int
	// Eviction ranks prototypes for eviction when MaxPrototypes is
	// exceeded; lowest score goes first. The zero value is win decay with a
	// half-life derived from the capacity. See Eviction. An uncapped model
	// keeps the zero value.
	Eviction Eviction
	// MergeOnEvict folds each victim into its nearest surviving prototype
	// (win-weighted centroid in the query space, win-weighted blend of the
	// local linear coefficients) instead of discarding it — the gentler
	// alternative that keeps the victim's learned mass in the model at the
	// cost of smearing its neighbour. An uncapped model keeps it false.
	MergeOnEvict bool
}

// DefaultConfig returns the paper's default parameters for input
// dimensionality d: a = 0.25, γ = 0.01, hyperbolic learning rate.
func DefaultConfig(dim int) Config {
	return Config{
		Dim:                     dim,
		ResolutionA:             0.25,
		Gamma:                   0.01,
		InitInterceptWithAnswer: true,
		RateByPrototype:         true,
	}
}

// validate normalizes and checks the configuration.
func (c Config) validate() (Config, error) {
	if c.Dim <= 0 {
		return c, fmt.Errorf("%w: Dim must be positive, got %d", ErrBadConfig, c.Dim)
	}
	if math.IsNaN(c.Vigilance) || math.IsInf(c.Vigilance, 0) {
		return c, fmt.Errorf("%w: Vigilance must be finite, got %v", ErrBadConfig, c.Vigilance)
	}
	if c.Vigilance <= 0 {
		if !(c.ResolutionA > 0 && c.ResolutionA <= 1) {
			return c, fmt.Errorf("%w: ResolutionA %v outside (0,1]", ErrBadConfig, c.ResolutionA)
		}
		c.Vigilance = c.ResolutionA * (math.Sqrt(float64(c.Dim)) + 1)
	}
	c.ResolutionA = 0
	if c.Gamma <= 0 {
		return c, fmt.Errorf("%w: Gamma must be positive, got %v", ErrBadConfig, c.Gamma)
	}
	if c.MinGammaSteps <= 0 {
		c.MinGammaSteps = 100
	}
	if c.ConvergenceWindow <= 0 {
		c.ConvergenceWindow = 25
	}
	if err := checkCapacity(c.MaxPrototypes, c.Eviction); err != nil {
		return c, err
	}
	cc := newCapacity(c.MaxPrototypes, c.Eviction, c.MergeOnEvict)
	c.Eviction, c.MergeOnEvict = cc.policy, cc.merge
	return c, nil
}

// Model is the trained (or in-training) query-driven LLM model.
//
// A Model is written through its own methods and read through View. It is
// safe for concurrent use, and its read side is lock-free: View and the
// reading methods (PredictMean, Regression, PredictValue, Save and the
// accessors) answer from an immutable storeSnapshot obtained with one atomic
// pointer load — no mutex, no reader/writer contention, no blocking behind a
// training stream.
// Observe/TrainBatch serialize on a writer mutex, build the next
// version, and publish it with one atomic store. Versions share their row
// chunks copy-on-write (see protoStore): publishing after one training pair
// copies the chunk the winner row lives in and the chunk-pointer tables,
// not the K×(d+1) matrices, so a live training stream publishes every step
// at O(touched rows) no matter how large the prototype set has grown. Use
// View to pin one version across several calls; see View for the
// zero-downtime model-swap pattern.
type Model struct {
	cfg  Config
	snap atomic.Pointer[storeSnapshot] // published serving state

	// capCfg is the single source of truth for the three runtime-mutable
	// Config fields (MaxPrototypes, Eviction, MergeOnEvict): SetCapacity
	// replaces it with one atomic store, and every reader — the lock-free
	// Save/Config as well as the writer-side eviction path — loads it with
	// one atomic load. cfg itself is immutable after NewModel (its capacity
	// fields only record the constructor-time values), which is what lets
	// Config copy it without a lock.
	capCfg atomic.Pointer[capacityConfig]

	mu         sync.Mutex  // guards everything below (the writer state)
	store      *protoStore // the parameter set: rows, coefficients, clocks, solver state
	steps      int         // training pairs consumed
	converged  bool        // termination criterion reached
	lastGamma  float64     // most recent Γ value
	quietSteps int         // consecutive steps with Γ ≤ γ

	// The training step's scratch, sized once so a step allocates nothing:
	// the regressor z = [1, q − w_j] and the RLS gain P·z (d+2 each), and
	// the winner's moved row [x_j, θ_j] (d+1).
	z, pz, moved []float64
	cands        []scored // evictLocked's candidate buffer, reused across passes
}

// TrainingPair is one observed (query, answer) pair from the stream T.
type TrainingPair struct {
	Query  Query
	Answer float64
}

// StepInfo reports what one training step did.
type StepInfo struct {
	// Step is the 1-based index of the consumed pair.
	Step int
	// Winner is the prototype index that absorbed the pair.
	Winner int
	// Created is true when the pair spawned a new prototype.
	Created bool
	// Evicted is the number of prototypes evicted (or merged away) by this
	// step's capacity enforcement; zero for unbounded models.
	Evicted int
	// GammaJ and GammaH are the per-step parameter drifts of the
	// quantization and regression parameters.
	GammaJ float64
	GammaH float64
	// Gamma is max(GammaJ, GammaH).
	Gamma float64
	// K is the number of live prototypes after the step.
	K int
	// Converged is true once the termination criterion has fired.
	Converged bool
}

// capacityConfig is the atomically published mirror of the runtime-mutable
// capacity fields of Config; see Model.capCfg.
type capacityConfig struct {
	max    int
	policy Eviction
	merge  bool
}

// NewModel creates an untrained model.
func NewModel(cfg Config) (*Model, error) {
	c, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: c, store: newProtoStore(c.Dim, c.Vigilance),
		z: make([]float64, c.Dim+2), pz: make([]float64, c.Dim+2), moved: make([]float64, c.Dim+1)}
	m.capCfg.Store(newCapacity(c.MaxPrototypes, c.Eviction, c.MergeOnEvict))
	m.publishLocked() // the empty version, so reads never see a nil snapshot
	return m, nil
}

// publishLocked builds and installs the next immutable serving snapshot.
// The caller holds the writer lock (or, during construction/Load, is the
// sole owner of the model).
func (m *Model) publishLocked() {
	m.snap.Store(m.store.publish(m.cfg.Dim, m.steps, m.converged, m.lastGamma, m.quietSteps))
}

// View pins the current published model version: every method of the
// returned View answers from that version, unaffected by concurrent
// training. Views are one pointer wide — take a fresh one per request for
// the latest version, or hold one to serve a consistent batch.
func (m *Model) View() View { return View{s: m.snap.Load()} }

// Config returns the normalized configuration (with the derived vigilance).
// The capacity fields reflect any runtime SetCapacity calls; the read is
// lock-free.
func (m *Model) Config() Config {
	cfg := m.cfg // immutable after NewModel; capacity fields overlaid below
	cc := m.capCfg.Load()
	cfg.MaxPrototypes = cc.max
	cfg.Eviction = cc.policy
	cfg.MergeOnEvict = cc.merge
	return cfg
}

// K returns the current number of prototypes/LLMs.
func (m *Model) K() int { return m.View().K() }

// Steps returns how many training pairs the model has consumed.
func (m *Model) Steps() int { return m.View().Steps() }

// Observe consumes one training pair, applying the joint AVQ/SGD update of
// Theorem 4, and reports the step outcome. After the model has converged
// further observations are ignored (Algorithm 1 freezes the parameter set α).
func (m *Model) Observe(q Query, answer float64) (StepInfo, error) {
	if err := m.checkPair(q, answer); err != nil {
		return StepInfo{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	frozen := m.converged
	info := m.observeLocked(q, answer)
	if !frozen {
		// Publish the new version; a frozen model mutated nothing.
		m.publishLocked()
	}
	return info, nil
}

// observeLocked applies one training step. The caller holds the write lock
// and has validated the pair.
func (m *Model) observeLocked(q Query, answer float64) StepInfo {
	if m.converged {
		return StepInfo{
			Step: m.steps, Gamma: m.lastGamma, GammaJ: 0, GammaH: 0,
			K: m.store.k, Converged: true,
		}
	}
	m.steps++
	s := m.store
	s.step = m.steps // every row this step writes is stamped with it
	info := StepInfo{Step: m.steps, K: s.k}

	// Find the winning prototype under the query-space L2 distance; the
	// first pair of a cold start has none.
	winner, dist := -1, math.Inf(1)
	if s.k > 0 {
		winner, dist = s.winnerQuery(q)
	}
	if dist > m.cfg.Vigilance {
		// Spawn a new prototype at the query (Algorithm 1, else branch),
		// appended as the last slot.
		info.Winner = s.spawn(q, m.initIntercept(answer))
		info.Created = true
		// Bounded capacity: a spawn that pushes the count past the cap
		// evicts (or merges) the lowest-scoring prototypes, protecting the
		// slot that just spawned, which stays the last slot of the store
		// the pass builds. The cap lives in the capCfg mirror
		// (runtime-mutable via SetCapacity); m.cfg stays immutable.
		if cc := m.capCfg.Load(); cc.max > 0 && s.k > cc.max {
			info.Evicted = m.evictLocked(info.Winner)
			info.Winner = m.store.k - 1
		}
		info.K = m.store.k
		// A growth step changes the parameter-set cardinality; Γ is reported
		// as +Inf so the criterion cannot fire while K is still growing.
		info.Gamma = math.Inf(1)
		info.GammaJ = math.Inf(1)
		info.GammaH = math.Inf(1)
		m.lastGamma = info.Gamma
		m.quietSteps = 0
		return info
	}

	// Joint update of the winner (Theorem 4). The residual and all three
	// update rules use the displacement (q − w_j) of the pre-update
	// prototype, so both are taken from the rows before the first write:
	// z = [1, q − w_j] is the regressor, laid out like the coefficient row.
	// η_t = 1/(t+1), the paper's hyperbolic rate; a loaded prototype may
	// carry no wins yet and counts as t = 1.
	t := m.steps
	if m.cfg.RateByPrototype {
		t = max(s.win(winner), 1)
	}
	eta := 1 / float64(t+1)
	row := s.row(winner)
	residual := answer - proto{row, s.coefRow(winner)}.eval(q.Center, q.Theta)
	z := m.z
	z[0] = 1
	for i, x := range q.Center {
		z[1+i] = x - row[i]
	}
	z[len(z)-1] = q.Theta - row[len(row)-1]

	// Δw_j = η (q − w_j): move the prototype toward the query.
	var gammaJ float64
	for i := range m.moved {
		dw := eta * z[1+i]
		m.moved[i] = row[i] + dw
		gammaJ += dw * dw
	}
	gammaJ = math.Sqrt(gammaJ)
	// The write order is row → (maybe an epoch rebuild, when the move spent
	// the drift budget) → coefficients → wins → stamp; readEpoch's staleness
	// rule depends on it.
	s.update(winner, m.moved)
	coef := s.coefForWrite(winner)

	var gammaH float64
	switch m.cfg.CoefficientSolver {
	case SolverSGD:
		// Δy_j = η·residual; Δb_j = η·residual·(q − w_j).
		dy := eta * residual
		coef[0] += dy
		var db float64
		for i := 1; i < len(z); i++ {
			d := eta * residual * z[i]
			coef[i] += d
			db += d * d
		}
		gammaH = math.Sqrt(db) + math.Abs(dy)
	default: // SolverRLS
		if s.rls[winner] == nil {
			s.rls[winner] = newRLS(len(z), 1e-3)
		}
		gammaH = rlsUpdate(s.rls[winner], coef, z, m.pz, residual)
	}
	s.setWin(winner, s.win(winner)+1)
	s.setStamp(winner, m.steps)
	info.Winner = winner
	info.GammaJ = gammaJ
	info.GammaH = gammaH
	info.Gamma = math.Max(gammaJ, gammaH)
	info.K = s.k
	m.lastGamma = info.Gamma

	if info.Gamma <= m.cfg.Gamma {
		m.quietSteps++
	} else {
		m.quietSteps = 0
	}
	if m.steps >= m.cfg.MinGammaSteps && m.quietSteps >= m.cfg.ConvergenceWindow {
		m.converged = true
		info.Converged = true
	}
	return info
}

func (m *Model) initIntercept(answer float64) float64 {
	if m.cfg.InitInterceptWithAnswer {
		return answer
	}
	return 0
}

// TrainingResult summarizes a TrainBatch call.
type TrainingResult struct {
	// Steps is the model's step count after the batch.
	Steps int
	// Accepted is how many pairs of the batch advanced the model: Steps
	// after minus Steps before, both read under the batch's writer lock, so
	// it is exact under concurrent trainers. A converged model accepts none.
	Accepted int
	// K is the final number of prototypes.
	K int
	// Converged is true when the termination criterion fired before the
	// stream was exhausted.
	Converged bool
	// FinalGamma is the last Γ value observed.
	FinalGamma float64
}

// TrainBatch consumes pairs in order until the termination criterion fires
// or the batch is exhausted (Algorithm 1), under a single writer-lock
// acquisition and a single snapshot publication. The paper's joint AVQ/SGD
// update is inherently sequential — step t+1's winner depends on step t's
// drift — so batching does not change the math: a stream trained as one
// batch, as one-pair batches or in any other split ends in the same state.
// It amortizes both the synchronization and the copy-on-write publication
// cost (each chunk is copied at most once for the whole batch, however many
// of its rows the batch touches). Concurrent readers keep answering from the
// previous published version for the duration and atomically see the
// post-batch model afterwards — a zero-downtime retrain. Pairs are validated
// before any step is applied.
func (m *Model) TrainBatch(pairs []TrainingPair) (TrainingResult, error) {
	if err := m.validatePairs(pairs); err != nil {
		return TrainingResult{}, err
	}
	return m.trainBatch(pairs, nil)
}

// validatePairs checks every pair of a batch against the model before any
// step is applied (and, on a Durable, before the batch is logged).
func (m *Model) validatePairs(pairs []TrainingPair) error {
	for _, p := range pairs {
		if err := m.checkPair(p.Query, p.Answer); err != nil {
			return err
		}
	}
	return nil
}

// checkPair checks one training pair against the model: a query of the
// model's dimension that Query.validate accepts, and a finite answer.
func (m *Model) checkPair(q Query, answer float64) error {
	if q.Dim() != m.cfg.Dim {
		return fmt.Errorf("%w: query dim %d, model dim %d", ErrDimension, q.Dim(), m.cfg.Dim)
	}
	if err := q.validate(); err != nil {
		return err
	}
	if math.IsNaN(answer) || math.IsInf(answer, 0) {
		return fmt.Errorf("core: non-finite training answer %v", answer)
	}
	return nil
}

// trainBatch applies validated pairs under one writer-lock acquisition and
// publishes once. beforePublish, when non-nil, runs after the last step and
// before the publication: Durable passes the wait for the batch's fsync, so
// the update overlaps the disk flush and still nothing unsynced becomes
// visible. Its error is returned as is and leaves the batch unpublished —
// the writer state is then ahead of every reader, which is only sound
// because the Durable that failed refuses all further training.
func (m *Model) trainBatch(pairs []TrainingPair, beforePublish func() error) (TrainingResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	before := m.steps
	for _, p := range pairs {
		if m.observeLocked(p.Query, p.Answer).Converged {
			break
		}
	}
	if beforePublish != nil {
		if err := beforePublish(); err != nil {
			return TrainingResult{}, err
		}
	}
	m.publishLocked()
	return TrainingResult{Steps: m.steps, Accepted: m.steps - before, K: m.store.k,
		Converged: m.converged, FinalGamma: m.lastGamma}, nil
}

// PredictMean answers a Q1 mean-value query (Algorithm 2): the predicted
// average of the output attribute over D(x, θ), computed purely from the
// trained LLMs without data access.
func (m *Model) PredictMean(q Query) (float64, error) {
	return m.View().PredictMean(q)
}

// Regression answers a Q2 linear-regression query (Algorithm 3): the list S
// of local linear models (intercept, slope) that approximate the data
// function g over D(x, θ). Overlapping prototypes contribute one model each;
// when no prototype overlaps, the closest prototype's model is returned by
// extrapolation (Case 3).
func (m *Model) Regression(q Query) ([]LocalLinear, error) {
	return m.View().Regression(q)
}

// PredictValue predicts the data value û ≈ g(x) for a point x inside the
// subspace addressed by the query q = [x0, θ] (Eq. 14): the overlap-weighted
// fusion of the neighbouring LLMs evaluated at their own prototype radii.
func (m *Model) PredictValue(q Query, x []float64) (float64, error) {
	return m.View().PredictValue(q, x)
}

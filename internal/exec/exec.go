// Package exec implements exact query execution over the in-memory DBMS
// substrate: the dNN (radius) selection operator, the exact mean-value query
// Q1 (Definition 4) and the exact multivariate linear-regression query Q2
// (the paper's REG baseline, Definition 1). These executors have full access
// to the data, so their cost grows with the size of the selected subspace —
// they provide both the ground truth used to train the LLM model and the
// baseline it is compared against.
package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"llmq/internal/engine"
	"llmq/internal/index"
	"llmq/internal/linalg"
)

// Errors returned by the executor.
var (
	ErrEmptySubspace = errors.New("exec: query selects no tuples")
	ErrNoInputs      = errors.New("exec: at least one input attribute is required")
)

// RadiusQuery is the selection operator shared by Q1 and Q2: all tuples whose
// input attributes lie within Lp distance Theta of Center.
type RadiusQuery struct {
	// Center is the query centre x.
	Center []float64
	// Theta is the radius θ (>= 0).
	Theta float64
	// P selects the Lp norm; 0 means L2.
	P float64
}

func (q RadiusQuery) norm() float64 {
	if q.P == 0 {
		return 2
	}
	return q.P
}

// MeanResult is the answer to an exact Q1 query.
type MeanResult struct {
	// Mean is the average of the output attribute over the selected subspace.
	Mean float64
	// Count is the cardinality n_θ(x) of the subspace.
	Count int
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// RegressionResult is the answer to an exact Q2 query: a single global OLS
// fit over the selected subspace (the REG baseline).
type RegressionResult struct {
	// Intercept and Slope are the fitted coefficients b0 and b.
	Intercept float64
	Slope     []float64
	// Count is the cardinality of the subspace the model was fitted on.
	Count int
	// FVU and CoD are the in-subspace goodness-of-fit metrics.
	FVU float64
	CoD float64
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// Executor evaluates exact Q1/Q2 queries against one relation. The relation's
// input attributes and output attribute are fixed at construction, and every
// selection is served by an index.Grid built over the input attributes. A
// selection is a list of positions into the grid's clustered coordinates
// (pts) and a clustered copy of the output column (out), so the grid's scan,
// the mean and the regression read the same few runs of memory and no row id
// is materialized. The executor holds no other copy of the relation.
type Executor struct {
	grid   *index.Grid
	pts    []float64 // grid.Points(): the input attributes, clustered, row-major
	out    []float64 // the output attribute in the same order
	inputs []string  // the input attribute names, in column order
	output string    // the output attribute name
}

// NewExecutor builds an executor over a relation of len(u) >= 1 rows held
// flat, with d = len(inputs) >= 1 input attributes named inputs and an output
// attribute named output: row i's inputs are x[i*d:(i+1)*d] and its output is
// u[i]. Its grid index has the given cell size. x and u are read, not
// retained: the grid clusters its own copy of both.
func NewExecutor(x, u []float64, inputs []string, output string, cellSize float64) (*Executor, error) {
	d := len(inputs)
	if d < 1 {
		return nil, ErrNoInputs
	}
	if len(u) == 0 || len(x) != len(u)*d {
		return nil, fmt.Errorf("exec: %d input values are not %d rows of %d attributes", len(x), len(u), d)
	}
	grid, err := index.NewGridFlat(x, d, cellSize)
	if err != nil {
		return nil, err
	}
	return &Executor{grid: grid, pts: grid.Points(), out: grid.Cluster(u),
		inputs: slices.Clone(inputs), output: output}, nil
}

// NewExecutorWithGrid is NewExecutor over table, which must hold at least
// one row, with the named input attributes and output attribute: it stages
// the input columns row-major and builds from them.
func NewExecutorWithGrid(table *engine.Table, inputs []string, output string, cellSize float64) (*Executor, error) {
	if len(inputs) == 0 {
		return nil, ErrNoInputs
	}
	schema := table.Schema()
	inCols := make([]int, len(inputs))
	for j, name := range inputs {
		c, err := schema.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		inCols[j] = c
	}
	outCol, err := schema.ColumnIndex(output)
	if err != nil {
		return nil, err
	}
	if table.Len() == 0 {
		return nil, fmt.Errorf("exec: table %q is empty", table.Name())
	}
	d := len(inCols)
	rows := make([]float64, table.Len()*d)
	for j, c := range inCols {
		for i, v := range table.ColumnAt(c) {
			rows[i*d+j] = v
		}
	}
	return NewExecutor(rows, table.ColumnAt(outCol), inputs, output, cellSize)
}

// Dim returns the number of input attributes: the dimensionality every
// query centre must have.
func (e *Executor) Dim() int { return e.grid.Dim() }

// Columns returns the relation's input attribute names, in column order, and
// its output attribute name. The slice is the executor's own: read it, do not
// modify it.
func (e *Executor) Columns() (inputs []string, output string) { return e.inputs, e.output }

// Select returns the row ids of the subspace D(x, θ), in the grid's visit
// order.
func (e *Executor) Select(q RadiusQuery) ([]int, error) {
	return e.grid.Radius(q.Center, q.Theta, q.norm())
}

// ctxCheckRows is how many rows the context-aware executors scan or reduce
// between cancellation checks.
const ctxCheckRows = index.ScanCheckRows

// scratch is the per-call working memory of the exact executors: the
// selection, as positions into Executor.pts and out. Recycled, so a steady
// stream of queries allocates nothing for it.
type scratch struct {
	pos []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// selectInto runs q's selection into sc.pos, observing ctx as it scans.
func (e *Executor) selectInto(ctx context.Context, sc *scratch, q RadiusQuery) (err error) {
	sc.pos, err = e.grid.Scan(ctx, sc.pos[:0], q.Center, q.Theta, q.norm())
	return err
}

// MeanCtx executes the exact Q1 query: the average of the output attribute
// over D(x, θ). It returns ErrEmptySubspace when no tuple qualifies. ctx is
// observed before the scan, at least once per ctxCheckRows candidate rows
// during it, after it, and every ctxCheckRows rows of the reduction — so a
// disconnected client or an expired deadline stops the relation scan instead
// of leaving it running for nobody.
func (e *Executor) MeanCtx(ctx context.Context, q RadiusQuery) (MeanResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return MeanResult{}, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := e.selectInto(ctx, sc, q); err != nil {
		return MeanResult{}, err
	}
	if len(sc.pos) == 0 {
		return MeanResult{}, ErrEmptySubspace
	}
	if err := ctx.Err(); err != nil {
		return MeanResult{}, err
	}
	var sum float64
	for k, at := range sc.pos {
		if k%ctxCheckRows == ctxCheckRows-1 {
			if err := ctx.Err(); err != nil {
				return MeanResult{}, err
			}
		}
		sum += e.out[at]
	}
	return MeanResult{
		Mean:    sum / float64(len(sc.pos)),
		Count:   len(sc.pos),
		Elapsed: time.Since(start),
	}, nil
}

// RegressionCtx executes the exact Q2 query: a single multivariate OLS fit
// of the output on the input attributes over D(x, θ) — the REG baseline.
// The fit reads the selected rows where the selection found them — in
// Executor.pts and out, by position — so nothing is gathered. Cancellation
// is observed before the selection, during it as in MeanCtx, and between the
// selection and the OLS fit — the two cost cliffs of the exact Q2 path.
func (e *Executor) RegressionCtx(ctx context.Context, q RadiusQuery) (RegressionResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return RegressionResult{}, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := e.selectInto(ctx, sc, q); err != nil {
		return RegressionResult{}, err
	}
	n := len(sc.pos)
	if n == 0 {
		return RegressionResult{}, ErrEmptySubspace
	}
	if err := ctx.Err(); err != nil {
		return RegressionResult{}, err
	}
	model, err := linalg.FitOLSAt(e.pts, e.grid.Dim(), e.out, sc.pos)
	if err != nil {
		return RegressionResult{}, fmt.Errorf("exec: regression over %d tuples: %w", n, err)
	}
	return RegressionResult{
		Intercept: model.Intercept,
		Slope:     model.Slope,
		Count:     n,
		FVU:       model.FVU(),
		CoD:       model.R2(),
		Elapsed:   time.Since(start),
	}, nil
}

// Predict evaluates the REG model fitted over D(x, θ) at each of the given
// points, returning the predictions. It is used for the data-value accuracy
// comparison (metric A2).
func (r RegressionResult) Predict(x []float64) float64 {
	s := r.Intercept
	for j, b := range r.Slope {
		s += b * x[j]
	}
	return s
}

// GlobalRegression fits a single multivariate OLS model of the output on the
// input attributes over the ENTIRE relation — the "one global linear model"
// an analyst gets without subspace-aware tooling (Figure 1 (right) of the
// paper). Its goodness of fit, when evaluated inside a small data subspace,
// is typically poor (FVU at or above 1), which is the behaviour the paper
// reports for its REG baseline.
func (e *Executor) GlobalRegression() (RegressionResult, error) {
	start := time.Now()
	// Every row, in row order: row i lies at the position IDs maps to i.
	pos := make([]int32, len(e.out))
	for at, id := range e.grid.IDs() {
		pos[id] = int32(at)
	}
	model, err := linalg.FitOLSAt(e.pts, e.grid.Dim(), e.out, pos)
	if err != nil {
		return RegressionResult{}, fmt.Errorf("exec: global regression: %w", err)
	}
	return RegressionResult{
		Intercept: model.Intercept,
		Slope:     model.Slope,
		Count:     len(pos),
		FVU:       model.FVU(),
		CoD:       model.R2(),
		Elapsed:   time.Since(start),
	}, nil
}

// SubspaceValues returns the raw (x, u) observations inside D(x, θ), in the
// order Select returns their row ids; the evaluation harness uses them to
// score any model's goodness of fit over the same subspace the paper scores
// REG, PLR and LLM on.
func (e *Executor) SubspaceValues(q RadiusQuery) (xs [][]float64, us []float64, err error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := e.selectInto(context.Background(), sc, q); err != nil {
		return nil, nil, err
	}
	if len(sc.pos) == 0 {
		return nil, nil, ErrEmptySubspace
	}
	d := e.grid.Dim()
	rows := make([]float64, len(sc.pos)*d)
	xs, us = make([][]float64, len(sc.pos)), make([]float64, len(sc.pos))
	for k, at := range sc.pos {
		xs[k] = rows[k*d : (k+1)*d : (k+1)*d]
		copy(xs[k], e.pts[int(at)*d:])
		us[k] = e.out[at]
	}
	return xs, us, nil
}

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
	"time"

	"llmq/internal/engine"
	"llmq/internal/index"
	"llmq/internal/linalg"
	"llmq/internal/stats"
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
// input attributes and output attribute are fixed at construction; the
// spatial index accelerates the selection.
type Executor struct {
	table   *engine.Table
	idx     index.SpatialIndex
	inCols  []int
	outCol  int
	inNames []string
	outName string
}

// NewExecutor builds an executor over table using the named input attributes
// and output attribute. If idx is nil a linear-scan index is built over the
// input attributes.
func NewExecutor(table *engine.Table, inputs []string, output string, idx index.SpatialIndex) (*Executor, error) {
	if len(inputs) == 0 {
		return nil, ErrNoInputs
	}
	schema := table.Schema()
	inCols := make([]int, len(inputs))
	for i, name := range inputs {
		c, err := schema.ColumnIndex(name)
		if err != nil {
			return nil, err
		}
		inCols[i] = c
	}
	outCol, err := schema.ColumnIndex(output)
	if err != nil {
		return nil, err
	}
	e := &Executor{
		table:   table,
		inCols:  inCols,
		outCol:  outCol,
		inNames: append([]string(nil), inputs...),
		outName: output,
	}
	if idx == nil {
		pts := e.materializeInputs()
		if len(pts) == 0 {
			return nil, fmt.Errorf("exec: table %q is empty", table.Name())
		}
		lin, err := index.NewLinear(pts)
		if err != nil {
			return nil, err
		}
		idx = lin
	}
	if idx.Dim() != len(inputs) {
		return nil, fmt.Errorf("exec: index dimension %d does not match %d input attributes", idx.Dim(), len(inputs))
	}
	if idx.Len() != table.Len() {
		return nil, fmt.Errorf("exec: index covers %d points but table has %d rows", idx.Len(), table.Len())
	}
	e.idx = idx
	return e, nil
}

// NewExecutorWithGrid is a convenience constructor that builds a grid index
// with the given cell size over the input attributes.
func NewExecutorWithGrid(table *engine.Table, inputs []string, output string, cellSize float64) (*Executor, error) {
	tmp, err := NewExecutor(table, inputs, output, nil)
	if err != nil {
		return nil, err
	}
	grid, err := index.NewGrid(tmp.materializeInputs(), cellSize)
	if err != nil {
		return nil, err
	}
	return NewExecutor(table, inputs, output, grid)
}

// InputNames returns the input attribute names.
func (e *Executor) InputNames() []string { return append([]string(nil), e.inNames...) }

// OutputName returns the output attribute name.
func (e *Executor) OutputName() string { return e.outName }

// Table returns the underlying relation.
func (e *Executor) Table() *engine.Table { return e.table }

// materializeInputs builds the row-major input point set for index
// construction.
func (e *Executor) materializeInputs() [][]float64 {
	n := e.table.Len()
	pts := make([][]float64, n)
	cols := make([][]float64, len(e.inCols))
	for j, c := range e.inCols {
		cols[j] = e.table.ColumnAt(c)
	}
	for i := 0; i < n; i++ {
		p := make([]float64, len(cols))
		for j := range cols {
			p[j] = cols[j][i]
		}
		pts[i] = p
	}
	return pts
}

// Select returns the row ids of the subspace D(x, θ).
func (e *Executor) Select(q RadiusQuery) ([]int, error) {
	return e.idx.Radius(q.Center, q.Theta, q.norm())
}

// ctxCheckRows is how many reduction rows run between cancellation checks
// in the context-aware executors: frequent enough that an abandoned scan
// over a large subspace stops within microseconds, rare enough that the
// atomic load is invisible in the per-row cost.
const ctxCheckRows = 4096

// MeanCtx executes the exact Q1 query: the average of the output attribute
// over D(x, θ). It returns ErrEmptySubspace when no tuple qualifies. The
// selection, the reduction loop (checked every ctxCheckRows rows) and the
// stage boundaries all observe ctx, so a disconnected client or an expired
// deadline stops the relation scan instead of leaving it running for
// nobody.
func (e *Executor) MeanCtx(ctx context.Context, q RadiusQuery) (MeanResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return MeanResult{}, err
	}
	ids, err := e.Select(q)
	if err != nil {
		return MeanResult{}, err
	}
	if len(ids) == 0 {
		return MeanResult{}, ErrEmptySubspace
	}
	if err := ctx.Err(); err != nil {
		return MeanResult{}, err
	}
	out := e.table.ColumnAt(e.outCol)
	var sum float64
	for i, id := range ids {
		if i%ctxCheckRows == ctxCheckRows-1 {
			if err := ctx.Err(); err != nil {
				return MeanResult{}, err
			}
		}
		sum += out[id]
	}
	return MeanResult{
		Mean:    sum / float64(len(ids)),
		Count:   len(ids),
		Elapsed: time.Since(start),
	}, nil
}

// RegressionCtx executes the exact Q2 query: a single multivariate OLS fit
// of the output on the input attributes over D(x, θ) — the REG baseline.
// Cancellation is observed before the selection, between the selection and
// the gather, and before the OLS fit — the three cost cliffs of the exact
// Q2 path.
func (e *Executor) RegressionCtx(ctx context.Context, q RadiusQuery) (RegressionResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return RegressionResult{}, err
	}
	ids, err := e.Select(q)
	if err != nil {
		return RegressionResult{}, err
	}
	if len(ids) == 0 {
		return RegressionResult{}, ErrEmptySubspace
	}
	if err := ctx.Err(); err != nil {
		return RegressionResult{}, err
	}
	xs, us := e.gather(ids)
	if err := ctx.Err(); err != nil {
		return RegressionResult{}, err
	}
	model, err := linalg.FitOLS(xs, us)
	if err != nil {
		return RegressionResult{}, fmt.Errorf("exec: regression over %d tuples: %w", len(ids), err)
	}
	return RegressionResult{
		Intercept: model.Intercept,
		Slope:     model.Slope,
		Count:     len(ids),
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
	n := e.table.Len()
	if n == 0 {
		return RegressionResult{}, ErrEmptySubspace
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	xs, us := e.gather(ids)
	model, err := linalg.FitOLS(xs, us)
	if err != nil {
		return RegressionResult{}, fmt.Errorf("exec: global regression: %w", err)
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

// SubspaceValues returns the raw (x, u) observations inside D(x, θ); the
// evaluation harness uses them to score any model's goodness of fit over the
// same subspace the paper scores REG, PLR and LLM on.
func (e *Executor) SubspaceValues(q RadiusQuery) (xs [][]float64, us []float64, err error) {
	ids, err := e.Select(q)
	if err != nil {
		return nil, nil, err
	}
	if len(ids) == 0 {
		return nil, nil, ErrEmptySubspace
	}
	xs, us = e.gather(ids)
	return xs, us, nil
}

// GoodnessOverSubspace scores arbitrary predictions against the actual output
// values of the subspace selected by q. The predict callback receives each
// input vector in the subspace.
func (e *Executor) GoodnessOverSubspace(q RadiusQuery, predict func(x []float64) float64) (stats.GoodnessOfFit, error) {
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

func (e *Executor) gather(ids []int) ([][]float64, []float64) {
	cols := make([][]float64, len(e.inCols))
	for j, c := range e.inCols {
		cols[j] = e.table.ColumnAt(c)
	}
	out := e.table.ColumnAt(e.outCol)
	xs := make([][]float64, len(ids))
	us := make([]float64, len(ids))
	for k, id := range ids {
		x := make([]float64, len(cols))
		for j := range cols {
			x[j] = cols[j][id]
		}
		xs[k] = x
		us[k] = out[id]
	}
	return xs, us
}

// Package core implements the paper's primary contribution: the query-driven
// Local Linear Mapping (LLM) model. The model observes executed analytics
// queries q = [x, θ] and their answers y, quantizes the query space with a
// conditionally growing AVQ (vigilance ρ = a(√d+1)), and learns per-prototype
// local linear mappings f_k(x, θ) ≈ y_k + b_{X,k}(x − x_k)ᵀ + b_{Θ,k}(θ − θ_k)
// by stochastic gradient descent (Algorithm 1, Theorem 4). After training it
// answers, without any data access:
//
//   - Q1 mean-value queries (Algorithm 2, Eq. 11–12),
//   - Q2 linear-regression queries as a list of local linear models over the
//     queried data subspace (Algorithm 3, Eq. 13, Theorem 3), and
//   - data-value predictions û ≈ g(x) (Eq. 14).
//
// Architecturally the package is a small serving system around that model.
// The write side (Model.Observe/TrainBatch, model.go) serializes on
// one writer mutex, updates the winner's rows in a chunked struct-of-arrays
// store (store.go) — the parameter set's only copy — and publishes an
// immutable copy-on-write snapshot through one atomic pointer. The read
// side (snapshot.go) is lock-free: every prediction answers from one
// published storeSnapshot, searching it through an immutable grid or k-d
// tree "read epoch" with exactness preserved across index staleness by a
// verified drift-slack budget, and Model.View pins a version across calls.
// Bounded-capacity streaming deployments (Config.MaxPrototypes, evict.go)
// evict prototypes in passes that compact the store over its survivors, so
// the model tracks non-stationary workloads at a fixed budget, with
// eviction published like any other version. The durability layer (recover.go) wraps the model in a Durable:
// a write-ahead log, checkpoint rotation and crash recovery over one data
// directory. A replication follower's mirror is the same Durable, opened by
// the same Recover, fed its primary's log bytes (Durable.Mirror) until it is
// promoted. docs/ARCHITECTURE.md is the guided tour of these paths and the
// invariants each layer maintains.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"llmq/internal/vector"
)

// Errors returned by the core model.
var (
	ErrDimension  = errors.New("core: dimension mismatch")
	ErrNotTrained = errors.New("core: model has no prototypes yet")
	ErrBadConfig  = errors.New("core: invalid configuration")
)

// Query is an analytics query over the data subspace D(x, θ): all points
// within distance θ of the centre x (Definition 3/4 of the paper).
type Query struct {
	// Center is the query centre x ∈ R^d.
	Center []float64
	// Theta is the radius θ >= 0.
	Theta float64
}

// NewQuery builds a query from a copy of center. It refuses an empty centre,
// a non-finite coordinate and a radius that is negative or non-finite.
func NewQuery(center []float64, theta float64) (Query, error) {
	q := Query{Center: center, Theta: theta}
	if err := q.validate(); err != nil {
		return Query{}, err
	}
	q.Center = slices.Clone(center)
	return q, nil
}

// validate checks that q is a query the model can train on and persist: a
// non-empty centre of finite coordinates and a finite radius θ >= 0. A
// non-finite coordinate would spawn a prototype that every later checkpoint
// carries and Load refuses.
func (q Query) validate() error {
	if len(q.Center) == 0 {
		return fmt.Errorf("%w: empty query centre", ErrDimension)
	}
	for _, x := range q.Center {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: non-finite query centre %s", vector.Format(q.Center))
		}
	}
	if q.Theta < 0 || math.IsNaN(q.Theta) || math.IsInf(q.Theta, 0) {
		return fmt.Errorf("core: invalid radius %v", q.Theta)
	}
	return nil
}

// Dim returns the dimensionality d of the query centre.
func (q Query) Dim() int { return len(q.Center) }

// Distance returns the query-space L2 distance between two queries
// (Definition 5): sqrt(||x − x'||² + (θ − θ')²).
func (q Query) Distance(o Query) float64 {
	return math.Sqrt(vector.SqDistance(q.Center, o.Center) + (q.Theta-o.Theta)*(q.Theta-o.Theta))
}

// OverlapDegree returns the normalized degree of overlap δ(q, o) ∈ [0, 1]
// of Eq. (9): 1 − max(||x − x'||₂, |θ − θ'|)/(θ + θ') when the subspaces
// overlap, and 0 otherwise. Two identical queries have degree 1.
func (q Query) OverlapDegree(o Query) float64 {
	return overlapDegree(vector.Distance(q.Center, o.Center), q.Theta, o.Theta)
}

// overlapDegree is the shared Eq. (9) kernel: the overlap degree of two data
// subspaces with centre distance dist and radii t1, t2. Both the Query API
// and the model's flat-store neighbourhood scan use it, so the two paths
// cannot diverge numerically.
func overlapDegree(dist, t1, t2 float64) float64 {
	sum := t1 + t2
	if sum <= 0 {
		// Two degenerate (zero-radius) subspaces overlap fully only when
		// they coincide.
		if dist == 0 {
			return 1
		}
		return 0
	}
	if dist > sum {
		return 0
	}
	num := math.Max(dist, math.Abs(t1-t2))
	deg := 1 - num/sum
	if deg < 0 {
		return 0
	}
	return deg
}

// Contains reports whether the point x lies inside the query's data
// subspace D(x0, θ) under the L2 norm.
func (q Query) Contains(x []float64) bool {
	if len(x) != q.Dim() {
		return false
	}
	return vector.Distance(x, q.Center) <= q.Theta
}

// String renders the query compactly.
func (q Query) String() string {
	return fmt.Sprintf("D(x=%s, θ=%.4g)", vector.Format(q.Center), q.Theta)
}

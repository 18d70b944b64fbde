package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"llmq/internal/core"
	"llmq/internal/index"
)

// Meta describes one shard's model state; it is also the /shard/meta wire
// body.
type Meta struct {
	Dim       int     `json:"dim"`
	Live      int     `json:"live"`
	Steps     int     `json:"steps"`
	Converged bool    `json:"converged"`
	MaxTheta  float64 `json:"max_theta"`
	Durable   bool    `json:"durable"`
}

// Health is one shard's readiness: Status is "ready" or the shard's
// degraded state ("read-only", "recovering", "unreachable", ...), with
// Cause naming the root failure.
type Health struct {
	Status string `json:"status"`
	Cause  string `json:"cause,omitempty"`
}

// TrainStats is the outcome of training pairs into one shard or a sharded
// set: how many pairs were absorbed, and the total step, prototype and
// convergence state afterwards.
type TrainStats struct {
	Accepted  int  `json:"accepted"`
	Steps     int  `json:"steps"`
	K         int  `json:"k"`
	Converged bool `json:"converged"`
}

// Backend is one shard as the router sees it: a scatter-scannable,
// trainable model, either in this process (Local) or across HTTP (Remote).
type Backend interface {
	// Scan answers a query with the shard's raw fusion terms
	// (core.View.ScatterScan).
	Scan(ctx context.Context, q core.Query, at []float64, needModels bool) (core.ScatterResult, error)
	// Train absorbs the pairs — all of which the partitioner already
	// assigned to this shard — and reports the shard's state afterwards.
	Train(ctx context.Context, pairs []core.TrainingPair) (TrainStats, error)
	// MaxTheta is the shard's routing bound: an upper bound on every live
	// prototype radius. It must never understate the true bound (a loose
	// bound costs a wasted scatter; a tight-but-stale one loses prototypes).
	MaxTheta() float64
	// Stats returns the backend's cheap, possibly cached view of the
	// shard's state — no network round trip.
	Stats() Meta
	// Health probes the shard's readiness.
	Health(ctx context.Context) Health
}

// Local is a shard living in this process: a model, optionally wrapped in
// a durable store so training is write-ahead logged. It is the backend of
// every single-model `llmq serve` process — the very thing a router's
// Remote talks to — and the in-process stand-in for such a server when
// tests hold a Sharded set to its union model without HTTP.
type Local struct {
	m *core.Model
	d *core.Durable
}

// NewLocal wraps an in-memory model as a shard backend.
func NewLocal(m *core.Model) *Local { return &Local{m: m} }

// NewLocalDurable wraps a durable store as a shard backend: training runs
// through its WAL, queries read the model's published versions as usual.
func NewLocalDurable(d *core.Durable) *Local { return &Local{m: d.Model(), d: d} }

// Model returns the shard's model.
func (l *Local) Model() *core.Model { return l.m }

// Durable returns the shard's durable store, or nil.
func (l *Local) Durable() *core.Durable { return l.d }

// Scan implements Backend on the model's current published version.
func (l *Local) Scan(_ context.Context, q core.Query, at []float64, needModels bool) (core.ScatterResult, error) {
	return l.m.View().ScatterScan(q, at, needModels)
}

// Train implements Backend; with a durable store the batch is WAL-logged
// before it is published.
func (l *Local) Train(_ context.Context, pairs []core.TrainingPair) (TrainStats, error) {
	var (
		res core.TrainingResult
		err error
	)
	if l.d != nil {
		res, err = l.d.TrainBatch(pairs)
	} else {
		res, err = l.m.TrainBatch(pairs)
	}
	if err != nil {
		return TrainStats{}, err
	}
	return TrainStats{Accepted: res.Accepted, Steps: res.Steps, K: res.K, Converged: res.Converged}, nil
}

// MaxTheta implements Backend from the current published version.
func (l *Local) MaxTheta() float64 { return l.m.View().MaxTheta() }

// Stats implements Backend; for a local shard the cheap view is exact.
func (l *Local) Stats() Meta {
	v := l.m.View()
	return Meta{
		Dim:       l.m.Config().Dim,
		Live:      v.K(),
		Steps:     v.Steps(),
		Converged: v.Converged(),
		MaxTheta:  v.MaxTheta(),
		Durable:   l.d != nil,
	}
}

// Health implements Backend: a local shard degrades only when its durable
// store has gone read-only after a WAL failure.
func (l *Local) Health(context.Context) Health {
	if l.d != nil {
		if cause := l.d.Failure(); cause != nil {
			return Health{Status: "read-only", Cause: cause.Error()}
		}
	}
	return Health{Status: "ready"}
}

// Sharded is the scatter/gather front-end over a set of shards. Its
// partition and backends are fixed when New returns — the layout is chosen
// at boot, and re-sharding is an offline rebuild — so reads need no lock;
// training serializes on one writer lock.
type Sharded struct {
	dim      int
	part     *index.Partition
	backends []Backend
	// mu serializes whole TrainBatch calls, so concurrent batches reach
	// every shard in the same order and each batch's aggregate TrainStats
	// describes one state of the set.
	mu sync.Mutex
}

// New assembles a sharded set: one backend per partition leaf, in leaf-id
// order. Local backends are checked against the partition's
// dimensionality; remote ones are checked when they are primed.
func New(part *index.Partition, backends []Backend) (*Sharded, error) {
	if part == nil {
		return nil, errors.New("shard: partition is required")
	}
	if len(backends) != part.Leaves() {
		return nil, fmt.Errorf("shard: %d backends for %d partition leaves", len(backends), part.Leaves())
	}
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("shard: backend %d is nil", i)
		}
		if l, ok := b.(*Local); ok {
			if d := l.m.Config().Dim; d != part.Dim() {
				return nil, fmt.Errorf("shard: backend %d has dim %d, partition has %d", i, d, part.Dim())
			}
		}
	}
	return &Sharded{dim: part.Dim(), part: part, backends: slices.Clone(backends)}, nil
}

// Dim returns the input dimensionality the set serves.
func (s *Sharded) Dim() int { return s.dim }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.backends) }

// Partition returns the space partition.
func (s *Sharded) Partition() *index.Partition { return s.part }

// Stats aggregates the backends' cheap state views: total live prototypes
// and steps, convergence of the whole set, and whether every shard trains
// durably.
func (s *Sharded) Stats() Meta {
	agg := Meta{Dim: s.dim, Converged: true, Durable: true}
	for _, b := range s.backends {
		m := b.Stats()
		agg.Live += m.Live
		agg.Steps += m.Steps
		agg.Converged = agg.Converged && m.Converged
		agg.Durable = agg.Durable && m.Durable
		if m.MaxTheta > agg.MaxTheta {
			agg.MaxTheta = m.MaxTheta
		}
	}
	return agg
}

// Health probes every shard, in shard order.
func (s *Sharded) Health(ctx context.Context) []Health {
	out := make([]Health, len(s.backends))
	var wg sync.WaitGroup
	for i, b := range s.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = b.Health(ctx)
		}()
	}
	wg.Wait()
	return out
}

// scanInto runs the query against the given shards concurrently, filling
// results[id] and scanned[id]. Any shard failure fails the whole scatter —
// a partial gather would silently break the union-model contract.
func (s *Sharded) scanInto(ctx context.Context, ids []int, q core.Query, at []float64, needModels bool,
	results []core.ScatterResult, scanned []bool) error {
	if len(ids) == 1 {
		id := ids[0]
		res, err := s.backends[id].Scan(ctx, q, at, needModels)
		if err != nil {
			return fmt.Errorf("shard %d: %w", id, err)
		}
		results[id], scanned[id] = res, true
		return nil
	}
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for n, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.backends[id].Scan(ctx, q, at, needModels)
			if err != nil {
				errs[n] = fmt.Errorf("shard %d: %w", id, err)
				return
			}
			results[id], scanned[id] = res, true
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scatter answers one query from the union of the shards: phase 1 scans
// the candidate shards (region box within θ + shard's MaxTheta of the
// centre — the only shards that can hold overlapping prototypes); if the
// global overlap set comes up empty, phase 2 scans the remaining shards,
// whose overlap sets are provably empty too, so they answer with their
// winner terms and the gather keeps the globally closest. The gather runs
// in ascending shard order throughout — the union model's slot order.
func (s *Sharded) scatter(ctx context.Context, q core.Query, at []float64, needModels bool) (gathered, error) {
	extra := make([]float64, len(s.backends))
	for i, b := range s.backends {
		extra[i] = b.MaxTheta()
	}
	cand := s.part.Touching(q.Center, q.Theta, extra, nil)
	slices.Sort(cand)
	results := make([]core.ScatterResult, len(s.backends))
	scanned := make([]bool, len(s.backends))
	if err := s.scanInto(ctx, cand, q, at, needModels, results, scanned); err != nil {
		return gathered{}, err
	}
	g := gather(ordered(results, scanned))
	if len(g.contribs) == 0 && len(cand) < len(s.backends) {
		// Winner fallback: the union model extrapolates from its globally
		// closest prototype, which can live in any shard.
		rest := make([]int, 0, len(s.backends)-len(cand))
		for id := range s.backends {
			if !scanned[id] {
				rest = append(rest, id)
			}
		}
		if err := s.scanInto(ctx, rest, q, at, needModels, results, scanned); err != nil {
			return gathered{}, err
		}
		g = gather(ordered(results, scanned))
	}
	return g, nil
}

// ordered collects the scanned results in ascending shard id — the gather
// order the bit-identity contract requires.
func ordered(results []core.ScatterResult, scanned []bool) []core.ScatterResult {
	out := make([]core.ScatterResult, 0, len(results))
	for id, ok := range scanned {
		if ok {
			out = append(out, results[id])
		}
	}
	return out
}

// Reader is the set's prediction surface bound to one request context:
// every scatter it runs carries ctx, so a request deadline or disconnect
// cancels the shard scans in flight.
type Reader struct {
	s   *Sharded
	ctx context.Context
}

// Reader binds the set's reads to ctx.
func (s *Sharded) Reader(ctx context.Context) Reader { return Reader{s: s, ctx: ctx} }

func (r Reader) check(q core.Query, at []float64) error {
	dim := r.s.dim
	if q.Dim() != dim {
		return fmt.Errorf("%w: query dim %d, sharded set dim %d", core.ErrDimension, q.Dim(), dim)
	}
	if at != nil && len(at) != dim {
		return fmt.Errorf("%w: point dim %d, sharded set dim %d", core.ErrDimension, len(at), dim)
	}
	return nil
}

// PredictMean answers Q1 exactly as the union model would.
func (r Reader) PredictMean(q core.Query) (float64, error) {
	if err := r.check(q, nil); err != nil {
		return 0, err
	}
	g, err := r.s.scatter(r.ctx, q, nil, false)
	if err != nil {
		return 0, err
	}
	if g.live == 0 {
		return 0, core.ErrNotTrained
	}
	return g.mean(), nil
}

// Regression answers Q2 exactly as the union model would.
func (r Reader) Regression(q core.Query) ([]core.LocalLinear, error) {
	if err := r.check(q, nil); err != nil {
		return nil, err
	}
	g, err := r.s.scatter(r.ctx, q, nil, true)
	if err != nil {
		return nil, err
	}
	if g.live == 0 {
		return nil, core.ErrNotTrained
	}
	return g.models(), nil
}

// PredictValue answers a value prediction exactly as the union model would.
func (r Reader) PredictValue(q core.Query, x []float64) (float64, error) {
	if err := r.check(q, x); err != nil {
		return 0, err
	}
	if x == nil {
		return 0, fmt.Errorf("%w: value prediction needs a data point", core.ErrDimension)
	}
	g, err := r.s.scatter(r.ctx, q, x, false)
	if err != nil {
		return 0, err
	}
	if g.live == 0 {
		return 0, core.ErrNotTrained
	}
	return g.value(), nil
}

// TrainBatch partitions the pairs by the query centre's leaf and trains
// the touched shards concurrently — the write path scales with the shard
// count because each shard takes its own writer lock and (when durable)
// fsyncs its own WAL. The whole batch runs under the sharded writer lock;
// queries keep answering throughout.
func (s *Sharded) TrainBatch(ctx context.Context, pairs []core.TrainingPair) (TrainStats, error) {
	for i, p := range pairs {
		if p.Query.Dim() != s.dim {
			return TrainStats{}, fmt.Errorf("%w: pair %d has dim %d, sharded set has %d",
				core.ErrDimension, i, p.Query.Dim(), s.dim)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	buckets := make([][]core.TrainingPair, len(s.backends))
	for _, p := range pairs {
		id := s.part.Locate(p.Query.Center)
		buckets[id] = append(buckets[id], p)
	}
	stats := make([]TrainStats, len(s.backends))
	errs := make([]error, len(s.backends))
	var wg sync.WaitGroup
	for id, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.backends[id].Train(ctx, bucket)
			if err != nil {
				errs[id] = fmt.Errorf("shard %d: %w", id, err)
				return
			}
			stats[id] = res
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return TrainStats{}, err
	}
	agg := TrainStats{Converged: true}
	for id := range s.backends {
		st := stats[id]
		if len(buckets[id]) == 0 {
			// Untouched shard: fold in its cheap state view so Steps and K
			// describe the whole set.
			m := s.backends[id].Stats()
			st = TrainStats{Steps: m.Steps, K: m.Live, Converged: m.Converged}
		}
		agg.Accepted += st.Accepted
		agg.Steps += st.Steps
		agg.K += st.K
		agg.Converged = agg.Converged && st.Converged
	}
	return agg, nil
}

package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/index"
)

// The bit-identity contract under test: a sharded set must answer every
// query with exactly the floats of its union model — the single core.Model
// holding every shard's live prototypes, concatenated in ascending shard
// order (core.Fuse). The reference is rebuilt from the live shard models at
// every checkpoint, so it tracks the set through training — whether the
// shards started empty or were carved from one trained model by core.Split.

// testConfig keeps the models unconvergeable (a converged model freezes and
// would stop tracking the interleaved stream) at a vigilance that spawns a
// few dozen prototypes per shard.
func testConfig(dim int) core.Config {
	cfg := core.DefaultConfig(dim)
	cfg.Vigilance = 0.25
	cfg.Gamma = 1e-12
	return cfg
}

// surface is a nonlinear answer function so the per-prototype local models
// differ and any mis-merged weight shows up in the prediction bits.
func surface(x []float64, theta float64) float64 {
	y := 3 * theta
	for i, xi := range x {
		y += math.Sin(4*xi) + 0.5*float64(i+1)*xi*xi
	}
	return y
}

// stream generates n training pairs with centres in [0,1]^dim.
func stream(n, dim int, rng *rand.Rand) []core.TrainingPair {
	pairs := make([]core.TrainingPair, n)
	for i := range pairs {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		theta := 0.02 + 0.1*rng.Float64()
		pairs[i] = core.TrainingPair{Query: core.Query{Center: c, Theta: theta}, Answer: surface(c, theta)}
	}
	return pairs
}

// newTestSet builds a sharded set of fresh local models over a partition
// derived from the given sample pairs.
func newTestSet(t testing.TB, dim, shards int, sample []core.TrainingPair) *Sharded {
	t.Helper()
	part := testPartition(t, dim, shards, sample)
	backends := make([]Backend, shards)
	for i := range backends {
		m, err := core.NewModel(testConfig(dim))
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = NewLocal(m)
	}
	s, err := New(part, backends)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testPartition carves [0,1]^dim into shards leaves from the sample pairs'
// centres, grid-snapped at d ≤ 3 like the partition a router rebuilds
// from its relation.
func testPartition(t testing.TB, dim, shards int, sample []core.TrainingPair) *index.Partition {
	t.Helper()
	flat := make([]float64, 0, len(sample)*dim)
	for _, p := range sample {
		flat = append(flat, p.Query.Center...)
	}
	cell := 0.0
	if dim <= 3 {
		cell = 1.0 / 64
	}
	part, err := index.NewPartition(dim, shards, flat, cell)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// unionOf fuses the set's current shard models, in ascending shard order,
// into the reference model the sharded answers are defined to equal.
func unionOf(t testing.TB, s *Sharded) *core.Model {
	t.Helper()
	var models []*core.Model
	for _, b := range s.backends {
		models = append(models, b.(*Local).Model())
	}
	ref, err := core.Fuse(models[0].Config(), models...)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// queryMix is the comparison workload: in-box queries of mixed radius (the
// overlap and straddle paths), and far-out tiny-radius queries (the winner
// extrapolation path).
func queryMix(dim, n int, rng *rand.Rand) []core.Query {
	qs := make([]core.Query, 0, n)
	for i := 0; i < n; i++ {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()*1.2 - 0.1
		}
		theta := rng.Float64() * 0.25
		if i%8 == 7 {
			// Far outside every region and every prototype's reach: the
			// union extrapolates from its global winner, the router from its
			// two-phase fallback.
			for j := range c {
				c[j] = 2.5 + rng.Float64()
			}
			theta = 0.01
		}
		qs = append(qs, core.Query{Center: c, Theta: theta})
	}
	return qs
}

// pathCounts classifies how the routed queries exercised the scatter paths.
type pathCounts struct {
	straddled    int // phase-1 candidate set spanned 2+ shards
	extrapolated int // global overlap empty: winner fallback decided
}

// compareToUnion asserts PredictMean, PredictValue and Regression are
// bit-identical between the sharded set and its union model over the
// queries, and reports which scatter paths the mix exercised.
func compareToUnion(t *testing.T, s *Sharded, ref *core.Model, queries []core.Query, rng *rand.Rand) pathCounts {
	t.Helper()
	var pc pathCounts
	v := ref.View()
	r := s.Reader(context.Background())
	part := s.Partition()
	backends := s.backends
	extra := make([]float64, len(backends))
	for i, b := range backends {
		extra[i] = b.MaxTheta()
	}
	for _, q := range queries {
		if len(part.Touching(q.Center, q.Theta, extra, nil)) > 1 {
			pc.straddled++
		}
		res, err := v.ScatterScan(q, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Contribs) == 0 {
			pc.extrapolated++
		}

		wantMean, err := v.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		gotMean, err := r.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		if gotMean != wantMean {
			t.Fatalf("query %+v: sharded mean %v, union %v", q, gotMean, wantMean)
		}

		at := make([]float64, len(q.Center))
		for j := range at {
			at[j] = rng.Float64()
		}
		wantVal, err := v.PredictValue(q, at)
		if err != nil {
			t.Fatal(err)
		}
		gotVal, err := r.PredictValue(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if gotVal != wantVal {
			t.Fatalf("query %+v at %v: sharded value %v, union %v", q, at, gotVal, wantVal)
		}

		wantModels, err := v.Regression(q)
		if err != nil {
			t.Fatal(err)
		}
		gotModels, err := r.Regression(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotModels, wantModels) {
			t.Fatalf("query %+v: sharded regression %+v, union %+v", q, gotModels, wantModels)
		}
	}
	return pc
}

// TestShardedBitIdentityInterleaved drives a 4-shard d=2 set through rounds
// of partitioned training interleaved with query checkpoints, every
// checkpoint property-testing the scatter/gather answers bit-identical to
// the fused union model, boundary-straddling and winner-fallback queries
// included.
func TestShardedBitIdentityInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	seed := stream(400, 2, rng)
	s := newTestSet(t, 2, 4, seed)
	ctx := context.Background()

	var straddled, extrapolated int
	checkpoint := func(stage string) {
		t.Helper()
		pc := compareToUnion(t, s, unionOf(t, s), queryMix(2, 250, rng), rng)
		straddled += pc.straddled
		extrapolated += pc.extrapolated
		if pc.straddled == 0 {
			t.Fatalf("%s: no boundary-straddling queries; the merge path is untested", stage)
		}
	}

	if _, err := s.TrainBatch(ctx, seed); err != nil {
		t.Fatal(err)
	}
	checkpoint("seeded")
	for round := 1; round <= 5; round++ {
		if _, err := s.TrainBatch(ctx, stream(300, 2, rng)); err != nil {
			t.Fatal(err)
		}
		checkpoint(fmt.Sprintf("trained round %d", round))
	}

	if extrapolated == 0 {
		t.Fatal("no winner-fallback queries; the two-phase scatter is untested")
	}
	t.Logf("straddled %d, extrapolated %d", straddled, extrapolated)
}

// TestShardedBootSplit checks a set carved from one trained model: the
// model, trained on the seed stream and split by core.Split along
// Partition.Locate, answers through the router bit-identically to the
// union of its children — before and after more training through the
// router.
func TestShardedBootSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	seed := stream(400, 2, rng)
	part := testPartition(t, 2, 4, seed)
	m, err := core.NewModel(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(seed); err != nil {
		t.Fatal(err)
	}
	kids, err := core.Split(m, part.Leaves(), func(center []float64, _ float64) int {
		return part.Locate(center)
	})
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Backend, len(kids))
	for i, k := range kids {
		backends[i] = NewLocal(k)
	}
	s, err := New(part, backends)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Live; got != m.K() {
		t.Fatalf("boot split holds %d prototypes, the model %d", got, m.K())
	}

	var straddled, extrapolated int
	checkpoint := func(stage string) {
		t.Helper()
		pc := compareToUnion(t, s, unionOf(t, s), queryMix(2, 250, rng), rng)
		straddled += pc.straddled
		extrapolated += pc.extrapolated
		if pc.straddled == 0 {
			t.Fatalf("%s: no boundary-straddling queries; the merge path is untested", stage)
		}
	}
	checkpoint("boot-split")
	if _, err := s.TrainBatch(context.Background(), stream(300, 2, rng)); err != nil {
		t.Fatal(err)
	}
	checkpoint("boot-split+trained")
	if extrapolated == 0 {
		t.Fatal("no winner-fallback queries; the two-phase scatter is untested")
	}
	t.Logf("straddled %d, extrapolated %d", straddled, extrapolated)
}

// TestShardedBitIdentityWideDim repeats the identity on a d=5 k-d partition
// (no grid snapping), where region boxes are unbounded on most sides and
// the straddle sets are larger.
func TestShardedBitIdentityWideDim(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	seed := stream(300, 5, rng)
	s := newTestSet(t, 5, 3, seed)
	ctx := context.Background()
	if _, err := s.TrainBatch(ctx, seed); err != nil {
		t.Fatal(err)
	}
	pc := compareToUnion(t, s, unionOf(t, s), queryMix(5, 200, rng), rng)
	if _, err := s.TrainBatch(ctx, stream(200, 5, rng)); err != nil {
		t.Fatal(err)
	}
	pc2 := compareToUnion(t, s, unionOf(t, s), queryMix(5, 200, rng), rng)
	if pc.straddled+pc2.straddled == 0 || pc.extrapolated+pc2.extrapolated == 0 {
		t.Fatalf("path coverage too thin: straddled %d+%d, extrapolated %d+%d",
			pc.straddled, pc2.straddled, pc.extrapolated, pc2.extrapolated)
	}
}

// TestShardedTrainRouting checks the partitioner maps every pair to exactly
// one shard: after training, each shard's prototypes sit inside its region
// box, and the per-shard step counts sum to the pair count.
func TestShardedTrainRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	seed := stream(500, 2, rng)
	s := newTestSet(t, 2, 4, seed)
	st, err := s.TrainBatch(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != len(seed) || st.Steps != len(seed) {
		t.Fatalf("TrainStats %+v, want %d accepted and steps", st, len(seed))
	}
	part := s.Partition()
	for id, b := range s.backends {
		lo, hi, err := part.Region(id)
		if err != nil {
			t.Fatal(err)
		}
		// Every prototype has θ > 0 and lies in the unit square, so a query
		// of radius 10 at the square's centre overlaps all of them.
		v := b.(*Local).Model().View()
		if v.K() == 0 {
			t.Errorf("shard %d absorbed nothing; the partition is degenerate", id)
			continue
		}
		protos, _, err := v.Neighborhood(core.Query{Center: []float64{0.5, 0.5}, Theta: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(protos) != v.K() {
			t.Fatalf("shard %d: the covering query overlaps %d of %d prototypes", id, len(protos), v.K())
		}
		for _, p := range protos {
			for a, x := range p.Center {
				if x < lo[a] || x >= hi[a] {
					t.Fatalf("shard %d prototype centre %v escaped region [%v, %v)", id, p.Center, lo, hi)
				}
			}
		}
	}
	// A one-pair batch routes the same way.
	q := core.Query{Center: []float64{0.5, 0.5}, Theta: 0.05}
	id := part.Locate(q.Center)
	wantSteps := s.backends[id].Stats().Steps + 1
	if _, err := s.TrainBatch(context.Background(), []core.TrainingPair{{Query: q, Answer: 1.0}}); err != nil {
		t.Fatal(err)
	}
	if got := s.backends[id].Stats().Steps; got != wantSteps {
		t.Fatalf("one-pair batch left shard %d at %d steps, want %d", id, got, wantSteps)
	}
}

// trainBarrier holds every shard a batch touches inside Train until all of
// them have entered it.
type trainBarrier struct {
	want    int64
	arrived atomic.Int64
	all     chan struct{}
}

func (b *trainBarrier) reset(want int) {
	b.want = int64(want)
	b.arrived.Store(0)
	b.all = make(chan struct{})
}

// wait blocks until want shards have arrived, or fails when ctx ends first.
func (b *trainBarrier) wait(ctx context.Context) error {
	if b.arrived.Add(1) == b.want {
		close(b.all)
	}
	select {
	case <-b.all:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%d of %d touched shards entered Train before the deadline: %w", b.arrived.Load(), b.want, ctx.Err())
	}
}

// barrierShard is a local shard that records the pairs routed to it and
// trains them only once every shard its batch touches is inside Train.
type barrierShard struct {
	*Local
	gate *trainBarrier
	got  []core.TrainingPair
}

func (s *barrierShard) Train(ctx context.Context, pairs []core.TrainingPair) (TrainStats, error) {
	s.got = append(s.got, pairs...)
	if err := s.gate.wait(ctx); err != nil {
		return TrainStats{}, err
	}
	return s.Local.Train(ctx, pairs)
}

// TestShardedTrainScaling pins why partitioned training scales, by counting
// instead of timing: every pair of a batch lands on exactly one shard — the
// one Partition.Locate maps its centre to — and the touched shards train
// concurrently, which a barrier inside each shard's Train proves: no shard
// may start training until all of them have entered, so shards trained one
// after another never get past it. The deadline only turns that deadlock
// into a failure; nothing is measured, and any GOMAXPROCS passes.
func TestShardedTrainScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	pairs := stream(6000, 2, rng)
	base := newTestSet(t, 2, 4, pairs)
	part := base.Partition()
	gate := &trainBarrier{}
	shards := make([]*barrierShard, part.Leaves())
	backends := make([]Backend, len(shards))
	for i, b := range base.backends {
		shards[i] = &barrierShard{Local: b.(*Local), gate: gate}
		backends[i] = shards[i]
	}
	s, err := New(part, backends)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pairs); off += 500 {
		batch := pairs[off : off+500]
		want := make([][]core.TrainingPair, len(shards))
		for _, p := range batch {
			id := part.Locate(p.Query.Center)
			want[id] = append(want[id], p)
		}
		touched := 0
		for _, w := range want {
			if len(w) > 0 {
				touched++
			}
		}
		if touched < 2 {
			t.Fatalf("batch at %d touches %d shard(s): nothing to train concurrently", off, touched)
		}
		gate.reset(touched)
		for _, sh := range shards {
			sh.got = nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st, err := s.TrainBatch(ctx, batch)
		cancel()
		if err != nil {
			t.Fatalf("batch at %d: %v", off, err)
		}
		if got := gate.arrived.Load(); got != int64(touched) {
			t.Fatalf("batch at %d: %d shards entered Train, want the %d it touches", off, got, touched)
		}
		received := 0
		for id, sh := range shards {
			received += len(sh.got)
			if !reflect.DeepEqual(sh.got, want[id]) {
				t.Fatalf("batch at %d: shard %d received %d pairs, want the %d Locate maps to it, in order",
					off, id, len(sh.got), len(want[id]))
			}
		}
		if received != len(batch) || st.Accepted != len(batch) {
			t.Fatalf("batch at %d: the shards received %d and accepted %d of %d pairs", off, received, st.Accepted, len(batch))
		}
	}
}

// TestShardedValidation covers the construction and routing error surface.
func TestShardedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	seed := stream(100, 2, rng)
	s := newTestSet(t, 2, 2, seed)
	ctx := context.Background()
	r := s.Reader(ctx)

	// Empty set: scatter finds nothing, ErrNotTrained like a fresh model.
	if _, err := r.PredictMean(core.Query{Center: []float64{0.5, 0.5}, Theta: 0.1}); !errors.Is(err, core.ErrNotTrained) {
		t.Fatalf("empty set PredictMean: %v", err)
	}
	// Dimension mismatches.
	if _, err := r.PredictMean(core.Query{Center: []float64{0.5}, Theta: 0.1}); !errors.Is(err, core.ErrDimension) {
		t.Fatalf("bad query dim: %v", err)
	}
	if _, err := r.PredictValue(core.Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, []float64{1}); !errors.Is(err, core.ErrDimension) {
		t.Fatalf("bad at dim: %v", err)
	}
	if _, err := r.PredictValue(core.Query{Center: []float64{0.5, 0.5}, Theta: 0.1}, nil); !errors.Is(err, core.ErrDimension) {
		t.Fatalf("nil at point: %v", err)
	}
	if _, err := s.TrainBatch(ctx, []core.TrainingPair{{Query: core.Query{Center: []float64{1}, Theta: 0.1}}}); !errors.Is(err, core.ErrDimension) {
		t.Fatalf("bad pair dim: %v", err)
	}

	// Constructor validation.
	part := s.Partition()
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil partition accepted")
	}
	if _, err := New(part, make([]Backend, 1)); err == nil {
		t.Fatal("backend count mismatch accepted")
	}
	if _, err := New(part, make([]Backend, 2)); err == nil {
		t.Fatal("nil backend accepted")
	}
	wrong, err := core.NewModel(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(part, []Backend{NewLocal(wrong), NewLocal(wrong)}); err == nil {
		t.Fatal("dim-mismatched local backend accepted")
	}
}

// TestShardedDurableLifecycle checks durable stores behind the router, the
// backend each `llmq serve -data-dir` shard runs (here in process, through
// Local, instead of over HTTP): training through a durable backend
// WAL-logs, every shard reports ready, and the set still answers
// bit-identically to its union.
func TestShardedDurableLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	seed := stream(120, 2, rng)
	flat := make([]float64, 0, len(seed)*2)
	for _, p := range seed {
		flat = append(flat, p.Query.Center...)
	}
	part, err := index.NewPartition(2, 2, flat, 0)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Backend, 2)
	for i := range backends {
		d, err := core.Recover(t.TempDir(), testConfig(2), core.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		backends[i] = NewLocalDurable(d)
	}
	s, err := New(part, backends)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.TrainBatch(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != len(seed) {
		t.Fatalf("durable sharded train absorbed %d steps, want %d", st.Steps, len(seed))
	}
	if !s.Stats().Durable {
		t.Fatal("all-durable set must aggregate Durable true")
	}
	for _, h := range s.Health(context.Background()) {
		if h.Status != "ready" {
			t.Fatalf("healthy durable shard reports %+v", h)
		}
	}
	// The union still answers bit-identically through durable backends.
	var models []*core.Model
	for _, b := range s.backends {
		models = append(models, b.(*Local).Model())
	}
	ref, err := core.Fuse(models[0].Config(), models...)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Center: []float64{0.4, 0.6}, Theta: 0.2}
	want, err := ref.View().PredictMean(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Reader(context.Background()).PredictMean(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("durable sharded mean %v, union %v", got, want)
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llmq/internal/wal"
)

// durableOver wraps an already-built model in a Durable appending to a fresh
// log in dir, bypassing Recover so the 1k-prototype fixture builds by direct
// insertion (the log need not cover the fixture: the benchmark measures the
// per-pair append+apply path, not recovery of the fixture itself).
// SnapshotEvery is effectively infinite so no rotation lands mid-measurement.
func durableOver(tb testing.TB, m *Model, dir string, mode wal.SyncMode) *Durable {
	tb.Helper()
	l, err := wal.Continue(dir, wal.Options{Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	return &Durable{m: m, opts: DurableOptions{SnapshotEvery: 1 << 30}.withDefaults(), log: l,
		hashes: make(map[uint64]BoundaryHash)}
}

// rotationBenchModel is the K=2000, d=2 fixture of the rotation and
// checkpoint-load benchmarks — train_durable's shape in the repository's
// benchmark — with every prototype carrying RLS solver state, as a trained
// one does.
func rotationBenchModel(tb testing.TB) *Model {
	m := buildPublishBenchModel(tb, 2, 2_000, 0.03, 0.05, 0.15)
	for k := range m.store.rls {
		m.store.rls[k] = newRLS(m.cfg.Dim+2, 1e-3)
	}
	return m
}

// BenchmarkRotation measures one snapshot rotation through Durable — what a
// /train ack that crosses the SnapshotEvery boundary pays on top of its
// batch: capture the model into the reused checkpoint buffer, fsync the
// tail, write the snapshot atomically, open the next segment, GC, and hash
// the captured rows for the boundary record. Steady-state rotation must
// allocate O(1) objects whatever K is; the benchmark fails above 32
// allocs/op.
func BenchmarkRotation(b *testing.B) {
	b.Run("K=2000", func(b *testing.B) {
		d := durableOver(b, rotationBenchModel(b), b.TempDir(), wal.SyncGroup)
		defer d.log.Close()
		if err := d.Snapshot(); err != nil { // size the buffers once
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(d.ckpt.b)), "snap_bytes")
		if allocs := testing.AllocsPerRun(5, func() { _ = d.Snapshot() }); allocs > 32 {
			b.Fatalf("steady-state rotation allocates %.0f objects, want ≤ 32", allocs)
		}
	})
}

// BenchmarkWALAppend measures the durable per-pair write path — WAL append
// under each sync policy, then the same winner-update Observe that
// BenchmarkObservePublish measures bare — on the K=1k fixture. The durability
// acceptance criterion compares sync=group here against
// BenchmarkObservePublish/K=1k: group fsync amortizes the flush over
// FlushBatch pairs, so durable ingestion must stay within ~2× of the
// in-memory path. sync=none bounds the pure framing+write cost; sync=always
// is the one-fsync-per-pair floor for callers that cannot tolerate losing a
// single acknowledged pair.
func BenchmarkWALAppend(b *testing.B) {
	const dim, K, vig = 2, 1_000, 0.03
	for _, mode := range []wal.SyncMode{wal.SyncGroup, wal.SyncNone, wal.SyncAlways} {
		b.Run(fmt.Sprintf("sync=%s", mode), func(b *testing.B) {
			m := buildPublishBenchModel(b, dim, K, vig, 0.05, 0.15)
			d := durableOver(b, m, b.TempDir(), mode)
			defer d.log.Close()
			rng := rand.New(rand.NewSource(9))
			queries := make([]Query, 4096)
			for i := range queries {
				queries[i] = perturbedQuery(rng, m.View(), vig)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Observe(queries[i%len(queries)], 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures replay-on-boot: Recover over a directory whose
// newest snapshot is missing its tail, so every op re-reads and re-applies
// the whole tail through TrainBatch. ns/pair is the per-record replay cost;
// SnapshotEvery bounds the tail length, so boot time is this number times
// the configured cadence (plus one snapshot load, which load=checkpoint
// measures alone: Recover over a K=2000 binary snapshot with an empty tail).
func BenchmarkRecovery(b *testing.B) {
	b.Run("load=checkpoint", func(b *testing.B) {
		dir := b.TempDir()
		d := durableOver(b, rotationBenchModel(b), dir, wal.SyncNone)
		if err := d.Snapshot(); err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 1 << 30}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := Recover(dir, d.m.Config(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if r.Model().K() != 2_000 {
				b.Fatalf("recovered K=%d, want 2000", r.Model().K())
			}
			if err := r.log.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tail := range []int{4_096, 16_384} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			dir := b.TempDir()
			cfg := durableConfig()
			pairs := planeStream(tail, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 43)
			opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 1 << 30}
			d, err := Recover(dir, cfg, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.TrainBatch(pairs); err != nil {
				b.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				b.Fatal(err)
			}
			// Close the segment without Close's rotation: the directory must
			// keep its replay tail identical across iterations.
			if err := d.log.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Recover(dir, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				if r.Model().Steps() != tail {
					b.Fatalf("recovered %d steps, want %d", r.Model().Steps(), tail)
				}
				if err := r.log.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tail), "ns/pair")
		})
	}
}

// driftBatches generates 256-pair batches shaped like the repository
// benchmark's train_durable stream: d = 2 centres uniform in a 0.3-wide
// window that crosses the unit square once per 200 000 pairs (and bounces
// back), θ ~ N(0.1, 0.025). The batch is rebuilt in place, so generating it
// inside a timed loop costs a few microseconds and no allocation.
type driftBatches struct {
	rng   *rand.Rand
	t     int
	flat  [2 * 256]float64
	pairs [256]TrainingPair
}

func (s *driftBatches) next() []TrainingPair {
	for k := range s.pairs {
		phase := math.Mod(float64(s.t)/200_000, 2)
		lo := 0.7 * (1 - math.Abs(1-phase))
		c := s.flat[2*k : 2*k+2 : 2*k+2]
		c[0], c[1] = lo+0.3*s.rng.Float64(), lo+0.3*s.rng.Float64()
		theta := math.Max(0.1+0.025*s.rng.NormFloat64(), 0.005)
		s.pairs[k] = TrainingPair{Query: Query{Center: c, Theta: theta}, Answer: c[0] + 2*c[1] + 0.5*theta}
		s.t++
	}
	return s.pairs[:]
}

// BenchmarkDurableTrainBatch measures one acknowledged 256-pair batch
// through Durable.TrainBatch — log the batch, fsync per the policy, apply,
// publish — over a real temporary directory, on train_durable's model shape
// (vigilance 0.03, a 2 000-prototype cap, no convergence), warmed until the
// cap is reached so spawns, evictions and epoch rebuilds run as they do in
// the served stream. It is the in-process companion of the repository
// benchmark's core.durable_train_us_per_pair, next to BenchmarkWALAppend's
// per-pair Observe path; µs/batch is the reported unit. Rotation is
// excluded (BenchmarkRotation measures it).
func BenchmarkDurableTrainBatch(b *testing.B) {
	cfg := DefaultConfig(2)
	cfg.Vigilance = 0.03
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	cfg.MaxPrototypes = 2000
	for _, mode := range []wal.SyncMode{wal.SyncGroup, wal.SyncAlways, wal.SyncNone} {
		b.Run(fmt.Sprintf("sync=%s", mode), func(b *testing.B) {
			d, err := Recover(b.TempDir(), cfg, DurableOptions{WAL: wal.Options{Mode: mode}, SnapshotEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer d.log.Close()
			stream := &driftBatches{rng: rand.New(rand.NewSource(11))}
			for d.Model().K() < cfg.MaxPrototypes-cfg.MaxPrototypes/16 {
				if _, err := d.TrainBatch(stream.next()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.TrainBatch(stream.next()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/batch")
		})
	}
}

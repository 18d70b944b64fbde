package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// buildPublishBenchModel constructs a K-prototype model by direct insertion
// (bypassing the vigilance stream), so the 100k-prototype fixtures of the
// publication benchmarks build in milliseconds instead of streaming millions
// of pairs. Prototypes are uniform in [0,1]^d with radii in [θLo, θHi];
// epoch rebuilds fire on the way exactly as during training, and the model
// ends published. Benchmark queries drawn with perturbedQuery land within
// the vigilance of their source prototype, so every Observe exercises the
// winner-update (copy-on-write) path, never a spawn.
func buildPublishBenchModel(tb testing.TB, dim, protos int, vigilance, thetaLo, thetaHi float64) *Model {
	tb.Helper()
	cfg := DefaultConfig(dim)
	cfg.Vigilance = vigilance
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < protos; i++ {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		q := Query{Center: c, Theta: thetaLo + (thetaHi-thetaLo)*rng.Float64()}
		coef := make([]float64, dim+2)
		coef[0] = rng.NormFloat64()
		// A converged serving model has absorbed many pairs per prototype;
		// the per-prototype learning-rate schedule then takes small steps, so
		// the benchmark measures steady-state updates, not cold-start lurches
		// (whose full-distance prototype moves would trigger drift rebuilds
		// every few pairs, which no converged stream exhibits).
		insertProto(m, q, coef, 200)
		m.store.maybeRebuildEpoch()
	}
	m.steps = protos
	// Index everything: a converged serving model has no stale un-indexed
	// tail (growth stopped long ago), whereas the raw bulk build above ends
	// with up to K/8 appended rows pending the next rebuild — which would
	// make every benchmark iteration scan that tail and measure the epoch
	// policy instead of the write path.
	m.store.rebuildEpoch()
	m.publishLocked()
	return m
}

// perturbedQuery returns a query a small step (well inside the vigilance)
// from a random existing prototype of v, so its winner is (essentially
// always) that prototype and Observe takes the update path.
func perturbedQuery(rng *rand.Rand, v View, vigilance float64) Query {
	s := v.s
	src := s.proto(rng.Intn(s.k)).query()
	step := 0.2 * vigilance / float64(s.width)
	for j := range src.Center {
		src.Center[j] += step * (2*rng.Float64() - 1)
	}
	src.Theta += step * (2*rng.Float64() - 1)
	if src.Theta < 0 {
		src.Theta = 0
	}
	return src
}

// BenchmarkObservePublish measures the full per-pair write path — winner
// search, joint AVQ/RLS update, and snapshot publication — across prototype
// counts. This is the measurement behind the chunked copy-on-write
// acceptance criterion: with publication copying only the winner row's chunk
// and the chunk-pointer tables, ns/op must stay essentially flat from K=1k
// to K=100k, where the old full-matrix copy grew it linearly.
// TestPublishCopiesOnlyTouchedChunks pins the property without a clock.
func BenchmarkObservePublish(b *testing.B) {
	// The vigilance scales as 1/√K, as a real training stream's would have to
	// for the workload to pack that many prototypes: constant prototype
	// density per grid cell, so the benchmark isolates the publication cost's
	// K-dependence rather than an unrealistic candidate-density growth. The
	// d=8 case is the tree epoch, whose rebuilds also gather the block's
	// coefficient rows and whose publications must not notice.
	for _, tc := range []struct {
		name string
		dim  int
		K    int
		vig  float64
	}{
		{"K=1k", 2, 1_000, 0.03},
		{"K=10k", 2, 10_000, 0.01},
		{"K=100k", 2, 100_000, 0.003},
		{"d=8/K=10k", 8, 10_000, 0.1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dim := tc.dim
			m := buildPublishBenchModel(b, dim, tc.K, tc.vig, 0.05, 0.15)
			rng := rand.New(rand.NewSource(9))
			queries := make([]Query, 4096)
			for i := range queries {
				queries[i] = perturbedQuery(rng, m.View(), tc.vig)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Observe(queries[i%len(queries)], 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainThroughput measures bulk ingestion (TrainBatch in 512-pair
// sheets): one writer-lock acquisition and one publication per sheet, with
// each dirtied chunk copied at most once per sheet however many of its rows
// the sheet updates. ns/op is per training pair.
func BenchmarkTrainThroughput(b *testing.B) {
	const dim, sheet = 2, 512
	for _, tc := range []struct {
		name string
		K    int
		vig  float64
	}{
		{"K=1k", 1_000, 0.03},
		{"K=10k", 10_000, 0.01},
		{"K=100k", 100_000, 0.003},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := buildPublishBenchModel(b, dim, tc.K, tc.vig, 0.05, 0.15)
			rng := rand.New(rand.NewSource(10))
			pairs := make([]TrainingPair, sheet)
			for i := range pairs {
				pairs[i] = TrainingPair{Query: perturbedQuery(rng, m.View(), tc.vig), Answer: rng.NormFloat64()}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += sheet {
				n := sheet
				if rest := b.N - done; rest < n {
					n = rest
				}
				if _, err := m.TrainBatch(pairs[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadDuringTrainingScaled is BenchmarkReadDuringTraining's
// large-K companion: prediction latency while a writer streams winner
// updates into a K=10k model. With O(touched-rows) publication the writer
// generates KB-sized garbage per pair instead of full-matrix copies, so the
// under-training read latency stays near the idle latency — the ≥3×
// acceptance criterion against the full-copy publication's under-training
// number.
func BenchmarkReadDuringTrainingScaled(b *testing.B) {
	const dim, vig, K = 2, 0.01, 10_000
	run := func(b *testing.B, training bool) {
		m := buildPublishBenchModel(b, dim, K, vig, 0.01, 0.02)
		qrng := rand.New(rand.NewSource(7))
		queries := make([]Query, 256)
		for i := range queries {
			queries[i] = perturbedQuery(qrng, m.View(), vig)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		if training {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(11))
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := m.Observe(perturbedQuery(wrng, m.View(), vig), wrng.NormFloat64()); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		b.ReportAllocs()
		b.ResetTimer()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q := queries[int(i.Add(1))%len(queries)]
				if _, err := m.PredictMean(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		close(done)
		wg.Wait()
	}
	for _, mode := range []string{"idle", "under-training"} {
		b.Run(fmt.Sprintf("%s/K=10k", mode), func(b *testing.B) { run(b, mode == "under-training") })
	}
}

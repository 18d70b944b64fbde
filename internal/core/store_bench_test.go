package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// queryGen produces the benchmark query stream; the model's prototype set is
// grown from the same distribution, as training does.
type queryGen func(rng *rand.Rand) Query

func uniformGen(dim int) queryGen {
	return func(rng *rand.Rand) Query { return randQuery(rng, dim) }
}

// clusteredGen models the paper's regime of query locality: analysts issue
// queries around data hot spots, so query centres concentrate on a mixture
// of clusters instead of filling the space uniformly. This is the workload
// shape the projection spine exploits in wide query spaces.
func clusteredGen(dim, clusters int, sigma float64, seed int64) queryGen {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for i := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		centers[i] = c
	}
	return func(rng *rand.Rand) Query {
		c := centers[rng.Intn(clusters)]
		x := make([]float64, dim)
		for j := range x {
			x[j] = c[j] + sigma*rng.NormFloat64()
		}
		return Query{Center: x, Theta: 0.05 + 0.05*rng.Float64()}
	}
}

// buildBenchModel grows a model to the given prototype count by streaming
// pairs from gen, then absorbs a few update rounds so every prototype
// carries trained RLS state — the state of a converged serving model.
// Ingestion goes through TrainBatch — the bulk path that amortizes snapshot
// publication — so building a 10k-prototype fixture stays cheap.
func buildBenchModel(tb testing.TB, dim, protos int, vigilance float64, gen queryGen) *Model {
	tb.Helper()
	cfg := DefaultConfig(dim)
	cfg.Vigilance = vigilance
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const chunk = 2048
	pairs := make([]TrainingPair, chunk)
	for tries := 0; tries < 100*protos/chunk+1 && m.K() < protos; tries++ {
		for i := range pairs {
			pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			tb.Fatal(err)
		}
	}
	if m.K() < protos {
		tb.Fatalf("expected %d prototypes, got %d", protos, m.K())
	}
	for round := 0; round < 3; round++ {
		protos := writerSlots(m)
		ref := make([]TrainingPair, 0, len(protos))
		for _, e := range protos {
			ref = append(ref, TrainingPair{Query: e.proto().query(), Answer: rng.NormFloat64()})
		}
		if _, err := m.TrainBatch(ref); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// BenchmarkWinnerSearch measures the store-backed winner search (grid-
// indexed for d+1 <= 4, k-d tree above).
// d=8-uniform is the adversarial shape (little locality for the tree boxes
// to prune on, the scan-budget bail regime); d=4/d=8-clustered is the
// paper's query-locality regime across the tree's width range.
func BenchmarkWinnerSearch(b *testing.B) {
	cases := []struct {
		name      string
		dim       int
		vigilance float64
		gen       queryGen
	}{
		{"d=2", 2, 0.03, uniformGen(2)},
		{"d=4-clustered", 4, 0.05, clusteredGen(4, 150, 0.05, 5)},
		{"d=8-uniform", 8, 0.25, uniformGen(8)},
		{"d=8-clustered", 8, 0.08, clusteredGen(8, 150, 0.05, 5)},
	}
	for _, tc := range cases {
		m := buildBenchModel(b, tc.dim, 1000, tc.vigilance, tc.gen)
		qrng := rand.New(rand.NewSource(7))
		queries := make([]Query, 256)
		for i := range queries {
			queries[i] = tc.gen(qrng)
		}
		b.Run("store/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.View().Winner(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// uniformThetaGen produces uniform query centres with a controlled radius
// band — the "point query" profile of the overlap benchmarks, where the
// radii (and hence the overlap sets) stay small relative to the space.
func uniformThetaGen(dim int, thetaLo, thetaHi float64) queryGen {
	return func(rng *rand.Rand) Query {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		return Query{Center: c, Theta: thetaLo + (thetaHi-thetaLo)*rng.Float64()}
	}
}

// clusteredThetaGen is clusteredGen with a controlled radius band.
func clusteredThetaGen(dim, clusters int, sigma, thetaLo, thetaHi float64, seed int64) queryGen {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for i := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64()
		}
		centers[i] = c
	}
	return func(rng *rand.Rand) Query {
		c := centers[rng.Intn(clusters)]
		x := make([]float64, dim)
		for j := range x {
			x[j] = c[j] + sigma*rng.NormFloat64()
		}
		return Query{Center: x, Theta: thetaLo + (thetaHi-thetaLo)*rng.Float64()}
	}
}

// overlapBenchCases are the shared fixtures of the overlap-set and
// PredictMean-scaling benchmarks: both the grid path (d=2, width 3) and the
// spine path (d=8, width 9) at K=1k and K=10k. The vigilance per case is
// tuned so the workload actually packs that many prototypes, and the query
// radius band scales with the vigilance (the quantization resolution): a
// finer model answers correspondingly finer queries, so the overlap set
// size — the output, which no algorithm can shrink — stays roughly constant
// across K and the benchmarks measure the machinery's K-dependence alone.
var overlapBenchCases = buildOverlapBenchCases()

type overlapBenchCase struct {
	name string
	dim  int
	K    int
	vig  float64
	gen  queryGen
}

func buildOverlapBenchCases() []overlapBenchCase {
	mk := func(name string, dim, K int, vig float64, clusters int, loF, hiF float64) overlapBenchCase {
		var gen queryGen
		if clusters > 0 {
			gen = clusteredThetaGen(dim, clusters, 0.05, loF*vig, hiF*vig, 5)
		} else {
			gen = uniformThetaGen(dim, loF*vig, hiF*vig)
		}
		return overlapBenchCase{name: name, dim: dim, K: K, vig: vig, gen: gen}
	}
	return []overlapBenchCase{
		mk("d=2-uniform/K=1k", 2, 1000, 0.025, 0, 1.2, 2.4),
		mk("d=2-uniform/K=10k", 2, 10000, 0.008, 0, 1.2, 2.4),
		mk("d=2-clustered/K=1k", 2, 1000, 0.018, 150, 1.2, 2.4),
		mk("d=2-clustered/K=10k", 2, 10000, 0.0055, 150, 1.2, 2.4),
		mk("d=4-clustered/K=1k", 4, 1000, 0.05, 150, 0.5, 1.0),
		mk("d=4-clustered/K=10k", 4, 10000, 0.03, 150, 0.5, 1.0),
		mk("d=8-clustered/K=1k", 8, 1000, 0.15, 150, 0.5, 1.0),
		mk("d=8-clustered/K=10k", 8, 10000, 0.035, 150, 0.5, 1.0),
	}
}

// BenchmarkOverlapSet compares the epoch radius-query overlap path (grid
// cells for d=2, k-d tree leaf collection for d=4/d=8) against the
// pre-change full scan, on the same published snapshot. Both produce
// identical indices and weights (TestOverlapSetMatchesLinearScan); only the
// candidate enumeration differs. This is the measurement behind the ≥3×
// acceptance criterion at K=10k; TestOverlapSearchIsIndexed pins the
// sub-O(K) property without a clock.
func BenchmarkOverlapSet(b *testing.B) {
	for _, tc := range overlapBenchCases {
		m := buildBenchModel(b, tc.dim, tc.K, tc.vig, tc.gen)
		s := m.snap.Load()
		qrng := rand.New(rand.NewSource(7))
		queries := make([]Query, 256)
		for i := range queries {
			queries[i] = tc.gen(qrng)
		}
		b.Run("range/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sc predictScratch
			for i := 0; i < b.N; i++ {
				s.overlapSet(queries[i%len(queries)], &sc)
			}
		})
		b.Run("linear/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sc predictScratch
			for i := 0; i < b.N; i++ {
				s.overlapLinearRaw(queries[i%len(queries)], &sc)
			}
		})
	}
}

// BenchmarkPredictMeanScaling measures the end-to-end Q1 prediction across
// prototype counts: with the winner search and the overlap set both served
// by the epoch index, the latency from K=1k to K=10k must grow far slower
// than the 10× prototype growth (the sub-linearity acceptance criterion).
func BenchmarkPredictMeanScaling(b *testing.B) {
	for _, tc := range overlapBenchCases {
		m := buildBenchModel(b, tc.dim, tc.K, tc.vig, tc.gen)
		qrng := rand.New(rand.NewSource(7))
		queries := make([]Query, 256)
		for i := range queries {
			queries[i] = tc.gen(qrng)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.PredictMean(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEpochRebuild measures the cost of one read-epoch rebuild — the
// amortized write-path price behind every indexed read. The K=10k cases
// build from scratch: the clustered grid build (row gather, cell numbering,
// counting scatter) at d=2, and the k-d tree bulk build (row gather,
// median-split quickselect, leaf reorder, bottom-up boxes) at d=4 and d=8.
// Rebuilds fire on the write path once the un-indexed tail reaches K/8 or
// one indexed row's displacement passes a quarter of the prototype spacing;
// on a training stream the second rule fires far more often than every K/8
// pairs (PERFORMANCE.md has the measured rate). d=2-durable is that stream:
// train_durable's shape warmed to its cap, then one 256-pair batch of drift;
// "merge" builds the next grid epoch from the one before the batch, the way
// the writer does, and "fresh" builds it from scratch.
func BenchmarkEpochRebuild(b *testing.B) {
	for _, tc := range overlapBenchCases {
		if tc.K < 10000 {
			continue
		}
		m := buildBenchModel(b, tc.dim, tc.K, tc.vig, tc.gen)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.store.epoch = nil
				m.store.rebuildEpoch()
			}
		})
	}
	m, stream := warmModel(b)
	s := m.store
	prev := s.epoch
	if _, err := m.TrainBatch(stream.next()); err != nil {
		b.Fatal(err)
	}
	s = m.store
	// What the writer would hold had no epoch been installed since prev,
	// whatever epochs the batch installed meanwhile: the slots below prev's
	// builtK whose rows moved from prev's copy are touched.
	var touched []int32
	for id := range prev.builtK {
		if !slices.Equal(prev.stale(id), s.row(id)) {
			touched = append(touched, int32(id))
		}
	}
	restore := func() {
		s.epoch = prev
		s.touched = append(s.touched[:0], touched...)
	}
	restore()
	if s.mergeGrid(prev) == nil {
		b.Fatal("the batch moved a row out of the last epoch's extent: nothing to merge")
	}
	b.Logf("since the last epoch: %d rows moved, %d appended", len(touched), s.k-prev.builtK)
	b.Run("d=2-durable/K≈1900/merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restore()
			s.rebuildEpoch()
		}
	})
	b.Run("d=2-durable/K≈1900/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.epoch = nil
			s.rebuildEpoch()
		}
	})
}

// BenchmarkReadDuringTraining measures prediction latency while a writer
// continuously streams training pairs into the same model — the regime the
// copy-on-write snapshots exist for: readers load the latest published
// version with one atomic pointer load and never wait on the writer. The
// idle variant is the contention-free baseline.
func BenchmarkReadDuringTraining(b *testing.B) {
	const dim = 2
	gen := clusteredThetaGen(dim, 150, 0.05, 0.01, 0.02, 5)
	run := func(b *testing.B, training bool) {
		m := buildBenchModel(b, dim, 1000, 0.018, gen)
		qrng := rand.New(rand.NewSource(7))
		queries := make([]Query, 256)
		for i := range queries {
			queries[i] = gen(qrng)
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
					if _, err := m.Observe(gen(wrng), wrng.NormFloat64()); err != nil {
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
	b.Run("idle", func(b *testing.B) { run(b, false) })
	b.Run("under-training", func(b *testing.B) { run(b, true) })
}

package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// wideGen is bench/'s sheet_wide geometry: query centres drawn N(c, σ²I)
// around `clusters` distinct vertices of the cube {0.3, 0.7}^8 (so clusters
// never touch), θ uniform in [0.05, 0.15].
func wideGen(clusters int, seed int64) queryGen {
	const dim, sigma = 8, 0.04
	rng := rand.New(rand.NewSource(seed))
	taken := map[int]bool{}
	var centers [][]float64
	for len(centers) < clusters {
		v := rng.Intn(1 << dim)
		if taken[v] {
			continue
		}
		taken[v] = true
		c := make([]float64, dim)
		for j := range c {
			c[j] = 0.3 + 0.4*float64(v>>j&1)
		}
		centers = append(centers, c)
	}
	return func(rng *rand.Rand) Query {
		c := centers[rng.Intn(len(centers))]
		x := make([]float64, dim)
		for j := range x {
			x[j] = c[j] + sigma*rng.NormFloat64()
		}
		return Query{Center: x, Theta: 0.05 + 0.1*rng.Float64()}
	}
}

// buildWideModel grows sheet_wide's model — vigilance 0.05, so nearly every
// pair of the clustered stream spawns — to K prototypes in 64-pair batches,
// the way bench/'s fixture does. reload round-trips it through Save/Load,
// which is how the served model arrives: slots in file order, one epoch
// built over all of them, nothing written since.
func buildWideModel(tb testing.TB, K int, gen queryGen, reload bool) *Model {
	tb.Helper()
	cfg := DefaultConfig(8)
	cfg.Vigilance = 0.05
	cfg.Gamma = 1e-12
	m, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	pairs := make([]TrainingPair, 64)
	for n := 0; m.K() < K; n += len(pairs) {
		if n > 20*K {
			tb.Fatalf("wide model stuck at K=%d after %d pairs", m.K(), n)
		}
		for i := range pairs {
			pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			tb.Fatal(err)
		}
	}
	if !reload {
		return m
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if m, err = Load(&buf); err != nil {
		tb.Fatal(err)
	}
	return m
}

// insertWideModel builds a K-prototype model on gen's dim-wide geometry by
// direct insertion, the way buildPublishBenchModel does: at σ = 0.04 in
// eight dimensions nearly every pair of the stream would have spawned
// anyway, and a 100 000-prototype fixture builds in a second instead of
// minutes.
func insertWideModel(tb testing.TB, dim, K int, gen queryGen) *Model {
	tb.Helper()
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.05
	cfg.Gamma = 1e-12
	m, err := NewModel(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < K; i++ {
		q := gen(rng)
		coef := make([]float64, cfg.Dim+2) // [y, b_X, b_Θ], drawn in that order
		for j := range coef {
			coef[j] = rng.NormFloat64()
		}
		insertProto(m, q, coef, 1)
	}
	m.steps = K
	m.store.rebuildEpoch()
	m.publishLocked()
	return m
}

// BenchmarkPredictMeanWide is one sheet_wide statement in-process. trained
// is bench/'s own fixture — 32 clusters, K = 10 000 grown by TrainBatch and
// reloaded, an overlap set of a few hundred prototypes per query — the
// fusion loop the served workload spends its time in. inserted holds the
// cluster density and moves K from 2 000 to 100 000, which is where a
// per-statement cost proportional to K would show. rows_tested/op is the
// number of block rows the leaf pass put through the membership test,
// members/op the size of the overlap set.
func BenchmarkPredictMeanWide(b *testing.B) {
	for _, tc := range []struct {
		name        string
		K, clusters int
		trained     bool
	}{
		{"trained/K=10k", 10000, 32, true},
		{"inserted/K=2k", 2000, 6, false},
		{"inserted/K=10k", 10000, 32, false},
		{"inserted/K=100k", 100000, 256, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			gen := wideGen(tc.clusters, 41)
			var m *Model
			if tc.trained {
				m = buildWideModel(b, tc.K, gen, true)
			} else {
				m = insertWideModel(b, 8, tc.K, gen)
			}
			qrng := rand.New(rand.NewSource(7))
			queries := make([]Query, 4096)
			for i := range queries {
				queries[i] = gen(qrng)
			}
			v := m.View()
			var sc predictScratch
			var rows, members int
			for _, q := range queries {
				idx, _, _ := v.s.overlapRaw(q, &sc)
				members += len(idx)
				for _, run := range sc.runs {
					rows += int(run.End - run.Start)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.PredictMean(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)/float64(len(queries)), "rows_tested/op")
			b.ReportMetric(float64(members)/float64(len(queries)), "members/op")
		})
	}
}

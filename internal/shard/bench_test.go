package shard

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// Shard-scaling measurements. The write path scales because TrainBatch
// buckets the pairs and each shard absorbs its bucket under its own writer
// lock; the read path scales because concurrent queries fan out over
// per-shard scans. On a 1- or 2-core machine the numbers collapse to ~1×,
// and the scaling shows only on multi-core hosts. TestShardedTrainScaling
// pins the property itself without a clock. To compare two commits, run
// these on both, back to back on one machine (PERFORMANCE.md, "How a number
// is made").

// benchShardCounts is the scaling ladder: 1, 2, 4 and 8 shards.
var benchShardCounts = []int{1, 2, 4, 8}

// BenchmarkShardedTrainThroughput measures partitioned write throughput at
// each shard count: one op trains a 256-pair batch through the scatter
// bucketer. pairs/s is the headline metric; ns/op is per batch. Prototype
// counts saturate under the test vigilance, so steady-state batches are
// comparable across shard counts.
func BenchmarkShardedTrainThroughput(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rng := rand.New(rand.NewSource(151))
			pool := stream(4096, 2, rng)
			s := newTestSet(b, 2, shards, pool)
			ctx := context.Background()
			const batch = 256
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % len(pool)
				if _, err := s.TrainBatch(ctx, pool[off:off+batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
}

// BenchmarkShardedQPS measures read throughput at each shard count:
// concurrent Q1 queries scattered over the set from all cores. Most queries
// route point-to-point (one shard), so added shards shrink per-scan work
// and add read parallelism.
func BenchmarkShardedQPS(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rng := rand.New(rand.NewSource(161))
			pool := stream(4096, 2, rng)
			s := newTestSet(b, 2, shards, pool)
			if _, err := s.TrainBatch(context.Background(), pool); err != nil {
				b.Fatal(err)
			}
			queries := queryMix(2, 1024, rng)
			r := s.Reader(context.Background())
			var cursor atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[int(cursor.Add(1))%len(queries)]
					if _, err := r.PredictMean(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
}

//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates; the -race run exercises the same training step
// through every other test.

package core

import (
	"math/rand"
	"runtime"
	"testing"

	"llmq/internal/wal"
)

// TestTrainingStepAllocationFree asserts a winner update allocates nothing:
// the step reads the winner's rows, forms the regressor and the moved row in
// the writer's scratch and writes the rows back. On a warm model — every
// prototype has taken its first RLS step, which is what allocates its
// inverse covariance — a TrainBatch of update-only pairs costs the same
// number of allocations for 64 pairs as for 256: what remains is per batch
// (the Γ trace, one publication, one copy of each chunk written), and both
// batches write every chunk. The pairs sit exactly on prototypes, so nothing
// drifts and no epoch rebuild lands inside a measured batch.
func TestTrainingStepAllocationFree(t *testing.T) {
	for _, dim := range []int{2, 8} {
		for _, solver := range []Solver{SolverRLS, SolverSGD} {
			cfg := DefaultConfig(dim)
			cfg.Vigilance = map[int]float64{2: 0.03, 8: 0.25}[dim]
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			cfg.CoefficientSolver = solver
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(70 + dim)))
			gen := uniformGen(dim)
			grow := make([]TrainingPair, 1500)
			for i := range grow {
				grow[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
			}
			if _, err := m.TrainBatch(grow); err != nil {
				t.Fatal(err)
			}
			// onPrototypes spreads n pairs evenly over the slots, one on each
			// chosen prototype's current position.
			onPrototypes := func(n int) []TrainingPair {
				protos := writerSlots(m)
				pairs := make([]TrainingPair, n)
				for i := range pairs {
					pairs[i] = TrainingPair{Query: protos[i*len(protos)/n].proto().query(), Answer: rng.NormFloat64()}
				}
				return pairs
			}
			K := m.K()
			if _, err := m.TrainBatch(onPrototypes(K)); err != nil { // warm every slot
				t.Fatal(err)
			}
			if m.View().s.epoch == nil || K <= 2*chunkRows {
				t.Fatalf("d=%d %s: K=%d, want an epoch and more than two chunks", dim, solver, K)
			}
			allocs := func(n int) float64 {
				pairs := onPrototypes(n)
				return testing.AllocsPerRun(20, func() {
					if res, err := m.TrainBatch(pairs); err != nil || res.Accepted != n || res.K != K {
						t.Fatalf("TrainBatch: %+v, %v; want %d update-only pairs", res, err, n)
					}
				})
			}
			if small, large := allocs(64), allocs(256); small != large {
				t.Errorf("d=%d %s K=%d: TrainBatch allocates %.0f objects for 64 pairs, %.0f for 256 — %.2f per pair, want 0",
					dim, solver, K, small, large, (large-small)/192)
			}
		}
	}
}

// TestDurableBatchAllocBytes bounds the bytes one acknowledged 256-pair
// Durable.TrainBatch allocates on train_durable's shape, warmed to its cap
// as BenchmarkDurableTrainBatch warms it: the chunks the batch copies on
// write, its publication, and the read epochs it rebuilds (0.68 a batch),
// which merge the last epoch's grid instead of building afresh. The mean
// over 400 batches was 212.8 kB a batch with every epoch built afresh,
// 169.4 kB with the merge, and 167.4 kB once a batch stopped recording Γ
// after every pair; the bound leaves 10 % above the last.
func TestDurableBatchAllocBytes(t *testing.T) {
	const batches, maxBytes = 400, 184_000
	d, stream := warmDurable(t, wal.SyncGroup)
	defer d.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range batches {
		if _, err := d.TrainBatch(stream.next()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.TotalAlloc-before.TotalAlloc) / batches
	t.Logf("%.0f bytes allocated per 256-pair batch (bound %d)", perBatch, maxBytes)
	if perBatch > maxBytes {
		t.Errorf("a durable batch allocates %.0f bytes, want at most %d", perBatch, maxBytes)
	}
}

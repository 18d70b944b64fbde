//go:build !race

// The allocation assertion is meaningless under the race detector, whose
// instrumentation allocates on the hot path; the -race run still exercises
// the same code through the other prediction tests.

package core

import (
	"math/rand"
	"testing"
)

// TestPredictionHotPathAllocationFree asserts the steady-state prediction
// path performs no heap allocation: the scratch pool carries the overlap
// buffers AND the k-d tree traversal stack (the wide path would otherwise
// allocate a stack per query), the winner search assembles its query point
// in the scratch, and nothing in between escapes. (Regression and
// Neighborhood allocate their returned slices by contract; PredictMean,
// PredictValue and Winner return scalars and must stay clean.) The d=8 case
// explicitly verifies the tree epoch is the one being exercised, so the
// assertion cannot silently pass on the flat-scan fallback. The wide cases
// are the block path at sheet_wide's geometry and K ≥ 4 096: once on a clean
// snapshot (a loaded model: every member read from the epoch's block), once
// mid-training (an unclean snapshot with a tail: stamp checks, live-row
// fallbacks and tail members in the same reduction).
func TestPredictionHotPathAllocationFree(t *testing.T) {
	gen := wideGen(12, 3)
	for _, midTraining := range []bool{false, true} {
		m := buildWideModel(t, 4096, gen, !midTraining)
		if midTraining {
			rng := rand.New(rand.NewSource(56))
			pairs := make([]TrainingPair, 48)
			for i := range pairs {
				pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
			}
			if _, err := m.TrainBatch(pairs); err != nil {
				t.Fatal(err)
			}
		}
		s := m.snap.Load()
		if s.epoch == nil || s.epoch.tree == nil || s.clean == midTraining || (midTraining && s.k == s.epoch.builtK) {
			t.Fatalf("mid-training %v: K=%d clean=%v builtK=%d is not the snapshot shape this case is for",
				midTraining, s.k, s.clean, s.epoch.builtK)
		}
		assertHotPathAllocationFree(t, m, gen, 8)
	}
	for _, dim := range []int{2, 8} {
		vig := 0.03
		if dim > 3 {
			vig = 0.25
		}
		m := buildBenchModel(t, dim, 1000, vig, uniformGen(dim))
		if dim+1 > storeGridMaxWidth {
			if e := m.snap.Load().epoch; e == nil || e.tree == nil {
				t.Fatalf("dim %d: expected a k-d tree epoch on the wide path", dim)
			}
		}
		assertHotPathAllocationFree(t, m, uniformGen(dim), dim)
	}
}

func assertHotPathAllocationFree(t *testing.T, m *Model, gen queryGen, dim int) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = gen(rng)
	}
	x := make([]float64, dim)
	var i int
	warm := func() {
		q := queries[i%len(queries)]
		i++
		if _, err := m.PredictMean(q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.View().Winner(q); err != nil {
			t.Fatal(err)
		}
		copy(x, q.Center)
		if _, err := m.PredictValue(q, x); err != nil {
			t.Fatal(err)
		}
	}
	for range queries {
		warm() // grow the pooled scratch to the largest statement
	}
	if avg := testing.AllocsPerRun(200, warm); avg > 0.05 {
		t.Errorf("dim %d K=%d: prediction hot path allocates %.2f objects/op, want 0", dim, m.K(), avg)
	}
}

package exec

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"llmq/internal/synth"
)

func TestMeanBatchMatchesSequential(t *testing.T) {
	tab, _ := loadTable(t, 5000, 2, synth.SensorSurrogate, 0.01, 21)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	qs := make([]RadiusQuery, 100)
	for i := range qs {
		// Include some radii small enough to select nothing.
		qs[i] = RadiusQuery{
			Center: []float64{rng.Float64(), rng.Float64()},
			Theta:  0.002 + 0.15*rng.Float64(),
		}
	}
	results, errs := e.MeanBatchCtx(context.Background(), qs)
	if len(results) != len(qs) || len(errs) != len(qs) {
		t.Fatalf("batch sizes: %d results, %d errs", len(results), len(errs))
	}
	sawEmpty, sawAnswer := false, false
	for i, q := range qs {
		want, wantErr := e.MeanCtx(context.Background(), q)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("query %d: batch err %v, sequential err %v", i, errs[i], wantErr)
		}
		if wantErr != nil {
			if !errors.Is(errs[i], ErrEmptySubspace) {
				t.Fatalf("query %d: unexpected error %v", i, errs[i])
			}
			sawEmpty = true
			continue
		}
		sawAnswer = true
		if results[i].Mean != want.Mean || results[i].Count != want.Count {
			t.Fatalf("query %d: batch (%v, %d), sequential (%v, %d)",
				i, results[i].Mean, results[i].Count, want.Mean, want.Count)
		}
	}
	if !sawAnswer {
		t.Fatal("workload produced no answered queries")
	}
	_ = sawEmpty // empty subspaces are fine either way; answers must match

	if res, errs := e.MeanBatchCtx(context.Background(), nil); len(res) != 0 || len(errs) != 0 {
		t.Errorf("empty batch: %d results, %d errs", len(res), len(errs))
	}
}

// TestForEachParallelCtxCancellation verifies the pool's cancellation
// contract: indices claimed before the cancellation complete, no index is
// claimed afterwards, and the call reports the context error.
func TestForEachParallelCtxCancellation(t *testing.T) {
	const n = 10000
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	err := forEachParallelCtx(ctx, n, func(i int) {
		executed.Add(1)
		// The first claimed indices cancel the context and stall until the
		// cancellation has propagated, so no worker can outrun it.
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
	})
	defer cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool returned %v, want context.Canceled", err)
	}
	got := executed.Load()
	// Every worker may have claimed at most one index before the first fn
	// call cancelled; afterwards nothing is claimed.
	if max := int64(runtime.GOMAXPROCS(0) + 1); got > max {
		t.Fatalf("cancelled pool executed %d indices, want <= %d", got, max)
	}
	if got == 0 {
		t.Fatal("cancelled pool executed nothing at all")
	}
}

// TestForEachParallelCtxComplete verifies the nil-context-error path is
// exhaustive: every index runs exactly once.
func TestForEachParallelCtxComplete(t *testing.T) {
	const n = 777
	seen := make([]int32, n)
	if err := forEachParallelCtx(context.Background(), n, func(i int) {
		atomic.AddInt32(&seen[i], 1)
	}); err != nil {
		t.Fatalf("uncancelled pool returned %v", err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

// TestMeanBatchCtxMarksSkipped verifies a cancelled batch distinguishes
// skipped queries (context error) from executed ones.
func TestMeanBatchCtxMarksSkipped(t *testing.T) {
	tab, _ := loadTable(t, 2000, 2, synth.SensorSurrogate, 0.01, 22)
	e, err := NewExecutorWithGrid(tab, []string{"x1", "x2"}, "u", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the pool starts: everything is skipped
	qs := make([]RadiusQuery, 50)
	for i := range qs {
		qs[i] = RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.1}
	}
	_, errs := e.MeanBatchCtx(ctx, qs)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: err=%v, want context.Canceled", i, err)
		}
	}
}

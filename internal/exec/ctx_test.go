package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"llmq/internal/synth"
)

// TestMeanRegressionCtxCancelled verifies the context-aware exact path: a
// cancelled context stops MeanCtx/RegressionCtx with the context error
// before (or during) the scan, an expired deadline does the same, and a
// live context changes nothing versus the plain entry points.
func TestMeanRegressionCtxCancelled(t *testing.T) {
	tab, ds := loadTable(t, 5000, 2, synth.Paraboloid, 0.1, 5)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	q := RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.3}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.MeanCtx(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Errorf("MeanCtx on a cancelled context: err = %v", err)
	}
	if _, err := e.RegressionCtx(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Errorf("RegressionCtx on a cancelled context: err = %v", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := e.MeanCtx(expired, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("MeanCtx past its deadline: err = %v", err)
	}

	// A live context answers.
	if _, err := e.MeanCtx(context.Background(), q); err != nil {
		t.Errorf("MeanCtx on a live context: %v", err)
	}
	if _, err := e.RegressionCtx(context.Background(), q); err != nil {
		t.Errorf("RegressionCtx on a live context: %v", err)
	}
}

// TestBatchCtxThreadsIntoQueries checks the batch pools hand their context
// down into the per-query executors: a pre-cancelled context yields the
// context error in every errs slot (claimed or skipped alike).
func TestBatchCtxThreadsIntoQueries(t *testing.T) {
	tab, ds := loadTable(t, 2000, 2, synth.Paraboloid, 0.1, 7)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]RadiusQuery, 16)
	for i := range qs {
		qs[i] = RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.25}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := e.MeanBatchCtx(ctx, qs)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

//go:build !race

// Under the race detector sync.Pool drops a share of what is Put, so the
// pooled scratch is reallocated and the counts below do not hold; the -race
// run exercises the same code through the other Grid-path tests.

package exec

import (
	"context"
	"testing"

	"llmq/internal/synth"
)

// TestGridPathAllocations pins the steady-state allocation behaviour of the
// served exact path: a mean allocates nothing (positions land in pooled
// scratch and are summed in place), a regression only the fit's few small
// matrices and its result (the fit reads the selection in place), Select
// only the id list it returns.
func TestGridPathAllocations(t *testing.T) {
	tab, ds := loadTable(t, 20000, 2, synth.SensorSurrogate, 0.05, 3)
	e, err := NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := RadiusQuery{Center: []float64{0.5, 0.5}, Theta: 0.15}
	mean := func() {
		if _, err := e.MeanCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	regression := func() {
		if _, err := e.RegressionCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	sel := func() {
		if _, err := e.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	mean() // grow the pooled scratch once
	regression()
	sel()
	if n := testing.AllocsPerRun(200, mean); n != 0 {
		t.Errorf("MeanCtx allocates %v objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, regression); n > 6 {
		t.Errorf("RegressionCtx allocates %v objects/op, want <= 6", n)
	}
	if n := testing.AllocsPerRun(200, sel); n != 1 {
		t.Errorf("Select allocates %v objects/op, want 1 (its result)", n)
	}
}

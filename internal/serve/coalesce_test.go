package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/sqlfront"
)

// bitEq compares two optional floats at the bit level: the coalescing
// contract is bit-identity, not epsilon-closeness.
func bitEq(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || math.Float64bits(*a) == math.Float64bits(*b)
}

func bitsEqSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffAnswer reports the first semantic difference between two query
// responses, ignoring only Elapsed (wall-clock, not part of the answer).
func diffAnswer(got, want *QueryResponse) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("one answer is nil: got %+v, want %+v", got, want)
	case got == nil:
		return ""
	case got.Kind != want.Kind:
		return fmt.Sprintf("kind %q != %q", got.Kind, want.Kind)
	case got.Approx != want.Approx:
		return fmt.Sprintf("approx %v != %v", got.Approx, want.Approx)
	case got.Degraded != want.Degraded:
		return fmt.Sprintf("degraded %v != %v", got.Degraded, want.Degraded)
	case got.Tuples != want.Tuples:
		return fmt.Sprintf("tuples %d != %d", got.Tuples, want.Tuples)
	case !bitEq(got.Mean, want.Mean):
		return fmt.Sprintf("mean %v != %v", got.Mean, want.Mean)
	case !bitEq(got.Value, want.Value):
		return fmt.Sprintf("value %v != %v", got.Value, want.Value)
	case !bitEq(got.FVU, want.FVU):
		return fmt.Sprintf("fvu %v != %v", got.FVU, want.FVU)
	case !bitEq(got.R2, want.R2):
		return fmt.Sprintf("r2 %v != %v", got.R2, want.R2)
	case len(got.Models) != len(want.Models):
		return fmt.Sprintf("%d models != %d", len(got.Models), len(want.Models))
	}
	for i := range got.Models {
		g, w := got.Models[i], want.Models[i]
		if math.Float64bits(g.Intercept) != math.Float64bits(w.Intercept) ||
			math.Float64bits(g.Theta) != math.Float64bits(w.Theta) ||
			math.Float64bits(g.Weight) != math.Float64bits(w.Weight) ||
			!bitsEqSlice(g.Slope, w.Slope) || !bitsEqSlice(g.Center, w.Center) {
			return fmt.Sprintf("model %d: %+v != %+v", i, g, w)
		}
	}
	return ""
}

// randomStmt draws a statement over the 2-D test relation: all three kinds,
// APPROX-heavy (the batcher's target traffic) but with EXACT mixed in, since
// both ride coalesced sheets.
func randomStmt(rng *rand.Rand) *sqlfront.Statement {
	st := &sqlfront.Statement{
		Output: "u",
		Table:  "r1",
		Theta:  0.08 + 0.1*rng.Float64(),
		Center: []float64{0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64()},
		Norm:   2,
		Approx: rng.Intn(4) != 0,
	}
	switch rng.Intn(3) {
	case 0:
		st.Kind = sqlfront.StmtMean
	case 1:
		st.Kind = sqlfront.StmtRegression
	default:
		st.Kind = sqlfront.StmtValue
		st.At = []float64{st.Center[0] + 0.01, st.Center[1] - 0.01}
	}
	return st
}

// TestCoalescedAnswersBitIdenticalUnderLiveTraining is the coalescing
// correctness property: while the model absorbs a live training stream,
// randomized interleaved floods of statements go through the micro-batcher,
// and every coalesced answer must be bit-identical to an uncoalesced
// re-evaluation of the same statement on the same pinned read surface. The
// sheet pins one View per cut; training publishes new versions concurrently,
// so any leakage of "current model" into a sheet's evaluation — or any
// nondeterminism in the collapse fan-out — shows up as a bit difference.
// Runs under -race in CI, which also checks the batcher's locking.
func TestCoalescedAnswersBitIdenticalUnderLiveTraining(t *testing.T) {
	s := newServer(t, true, WithLimits(Limits{BatchWindow: 2 * time.Millisecond, BatchMaxSheet: 8}))
	b := s.coalescer

	// Live training stream: keep publishing new model versions for the
	// whole flood, the regime the View pinning exists for.
	stop := make(chan struct{})
	var trainWG sync.WaitGroup
	trainWG.Add(1)
	go func() {
		defer trainWG.Done()
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, err := core.NewQuery([]float64{rng.Float64(), rng.Float64()}, 0.1)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.backend.pair().Model().Observe(q, rng.NormFloat64()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer trainWG.Wait()
	defer close(stop)

	rng := rand.New(rand.NewSource(42))
	// A small hot pool plus fresh statements: duplicates force the collapse
	// path, fresh ones the general coalescing path.
	pool := make([]*sqlfront.Statement, 6)
	for i := range pool {
		pool[i] = randomStmt(rng)
	}
	const rounds, flood = 12, 16
	for round := 0; round < rounds; round++ {
		stmts := make([]*sqlfront.Statement, flood)
		for i := range stmts {
			if rng.Intn(2) == 0 {
				stmts[i] = pool[rng.Intn(len(pool))]
			} else {
				stmts[i] = randomStmt(rng)
			}
		}
		var wg sync.WaitGroup
		for _, stmt := range stmts {
			wg.Add(1)
			go func(stmt *sqlfront.Statement) {
				defer wg.Done()
				p := b.submit(context.Background(), stmt, false)
				out := <-p.done
				// Reference: the uncoalesced path on the sheet's own pinned
				// surface. Errors must match too (same statement, same
				// surface, same outcome).
				want, werr := s.answer(context.Background(), stmt, out.reader, false)
				if (out.err != nil) != (werr != nil) {
					t.Errorf("coalesced err %v, reference err %v", out.err, werr)
					return
				}
				if out.err != nil {
					if out.err.Error() != werr.Error() {
						t.Errorf("coalesced err %q, reference err %q", out.err, werr)
					}
					return
				}
				if d := diffAnswer(out.resp, want); d != "" {
					t.Errorf("coalesced answer differs from the pinned reference: %s", d)
				}
			}(stmt)
		}
		wg.Wait()
	}
	if b.coalesced.Load() == 0 {
		t.Error("the flood never coalesced a sheet; the property was not exercised")
	}
	if b.collapsed.Load() == 0 {
		t.Error("the flood never collapsed a duplicate; the property was not exercised")
	}
	t.Logf("sheets=%d coalesced=%d collapsed=%d", b.sheets.Load(), b.coalesced.Load(), b.collapsed.Load())
}

package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"llmq/internal/core"
)

// bitEq compares two optional floats at the bit level: one pinned version
// answers a statement bit-identically, not epsilon-closely.
func bitEq(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || math.Float64bits(*a) == math.Float64bits(*b)
}

// optStr prints an optional float by value, not by address.
func optStr(p *float64) string {
	if p == nil {
		return "nil"
	}
	return fmt.Sprint(*p)
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
		return fmt.Sprintf("mean %s != %s", optStr(got.Mean), optStr(want.Mean))
	case !bitEq(got.Value, want.Value):
		return fmt.Sprintf("value %s != %s", optStr(got.Value), optStr(want.Value))
	case !bitEq(got.FVU, want.FVU):
		return fmt.Sprintf("fvu %s != %s", optStr(got.FVU), optStr(want.FVU))
	case !bitEq(got.R2, want.R2):
		return fmt.Sprintf("r2 %s != %s", optStr(got.R2), optStr(want.R2))
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

// randomSQL draws a statement over the 2-D test relation: all three kinds,
// APPROX-heavy but with EXACT scans mixed in, which spread a sheet's
// evaluation over more of the training stream.
func randomSQL(rng *rand.Rand) string {
	approx := ""
	if rng.Intn(4) != 0 {
		approx = "APPROX "
	}
	theta := 0.08 + 0.1*rng.Float64()
	cx, cy := 0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("SELECT %sAVG(u) FROM r1 WITHIN %.4f OF (%.4f, %.4f)", approx, theta, cx, cy)
	case 1:
		return fmt.Sprintf("SELECT %sREGRESSION(u) FROM r1 WITHIN %.4f OF (%.4f, %.4f)", approx, theta, cx, cy)
	default:
		return fmt.Sprintf("SELECT %sVALUE(u) FROM r1 AT (%.4f, %.4f) WITHIN %.4f OF (%.4f, %.4f)",
			approx, cx+0.01, cy-0.01, theta, cx, cy)
	}
}

// TestBatchSheetReadsOneVersionUnderLiveTraining: a /query/batch sheet pins
// one model version for all of its statements. While a goroutine trains the
// model on a live stream, sheets repeat a few hot APPROX statements, one of
// each kind, many times among fresh ones, and every copy of a statement
// within one sheet must answer bit-identically. A sheet that read the
// current model per statement would see training land between its copies.
// Runs under -race in CI.
func TestBatchSheetReadsOneVersionUnderLiveTraining(t *testing.T) {
	s := newServer(t, true)

	// Live training stream: keep publishing new model versions for as long
	// as sheets are being answered.
	stop := make(chan struct{})
	var observed atomic.Int64
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
			observed.Add(1)
		}
	}()
	defer trainWG.Wait()
	defer close(stop)

	hot := []string{
		"SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.12 OF (0.4, 0.6)",
		"SELECT APPROX VALUE(u) FROM r1 AT (0.61, 0.39) WITHIN 0.1 OF (0.6, 0.4)",
	}
	rng := rand.New(rand.NewSource(42))
	const rounds, copies, fresh = 12, 16, 48
	// firstRound holds each hot statement's answer in the first sheet: some
	// later sheet must answer differently, or training never published
	// between sheets and the property was not exercised.
	firstRound := map[string]*QueryResponse{}
	moved := false
	for round := 0; round < rounds; round++ {
		// Let the stream publish between sheets even where the scheduler
		// gives it little time (GOMAXPROCS=1).
		for mark := observed.Load() + 64; observed.Load() < mark && !t.Failed(); {
			runtime.Gosched()
		}
		sheet := make([]string, 0, len(hot)*copies+fresh)
		for _, sql := range hot {
			for c := 0; c < copies; c++ {
				sheet = append(sheet, sql)
			}
		}
		for i := 0; i < fresh; i++ {
			sheet = append(sheet, randomSQL(rng))
		}
		rng.Shuffle(len(sheet), func(i, j int) { sheet[i], sheet[j] = sheet[j], sheet[i] })
		rec := postBatch(t, s, BatchRequest{SQL: sheet})
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body.String())
		}
		frames, trailer := decodeStream(t, rec)
		if len(frames) != len(sheet) || trailer.Results != len(sheet) {
			t.Fatalf("round %d: %d frames (trailer claims %d), want %d", round, len(frames), trailer.Results, len(sheet))
		}
		seen := map[string]*QueryResponse{}
		for i, f := range frames {
			sql := sheet[i]
			if f.Error != "" {
				// A fresh statement may miss the data or the model; the hot
				// ones sit in the middle of both.
				for _, h := range hot {
					if sql == h {
						t.Fatalf("round %d: hot statement %q: %s", round, sql, f.Error)
					}
				}
				continue
			}
			prev, ok := seen[sql]
			if !ok {
				seen[sql] = f.QueryResponse
				continue
			}
			if d := diffAnswer(f.QueryResponse, prev); d != "" {
				t.Fatalf("round %d: two copies of %q in one sheet differ: %s", round, sql, d)
			}
		}
		for _, h := range hot {
			if round == 0 {
				firstRound[h] = seen[h]
			} else if diffAnswer(seen[h], firstRound[h]) != "" {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("no hot answer changed across sheets; training never published a new version")
	}
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"llmq/internal/vector"
)

// The epoch indexes carry fallback paths that are only reachable by
// pathological inputs — queries or prototype sets with no locality for the
// index to prune on. The tests here force each of them end to end through
// the model and assert the answers still match the linear scan: the
// fallbacks are performance valves, never correctness forks. (The
// index-level counterparts live in internal/index: the grid's visited-cell
// budget and the tree's forced bail are unit-forced there.)

// TestOverlapBroadQueryFallsBackToLinear forces the overlap router's
// broad-query bail: a radius covering most of the space makes the epoch's
// candidate set exceed K/2 (and, on the grid, the cell box exceed the cell
// budget), so the router answers with the straight scan. The result must be
// identical either way — indices and weights.
func TestOverlapBroadQueryFallsBackToLinear(t *testing.T) {
	for _, dim := range []int{2, 8} {
		vig := 0.03
		if dim > 3 {
			vig = 0.25
		}
		m := buildBenchModel(t, dim, 300, vig, uniformGen(dim))
		if m.snap.Load().epoch == nil {
			t.Fatalf("dim %d: no epoch at K=%d", dim, m.K())
		}
		rng := rand.New(rand.NewSource(int64(20 + dim)))
		for trial := 0; trial < 60; trial++ {
			c := make([]float64, dim)
			for j := range c {
				c[j] = rng.Float64()
			}
			// θ of several space diameters: every prototype overlaps.
			q := Query{Center: c, Theta: 3 + 2*rng.Float64()}
			checkOverlapAgainstLinear(t, m, q, "broad-query")
		}
	}
}

// TestWinnerNoLocalityBailMatchesLinearScan drives the k-d tree's scan-
// budget bail through the whole model: prototypes spawned on a thin
// spherical shell are near-equidistant from the sphere's centre, so no
// bounding box can prune a query there and the traversal's row budget
// trips, finishing with the seeded flat scan. The winner must still match
// the linear scan.
func TestWinnerNoLocalityBailMatchesLinearScan(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.01 // every shell point spawns its own prototype
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]TrainingPair, 600)
	for i := range pairs {
		x := make([]float64, dim)
		norm := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			norm += x[j] * x[j]
		}
		scale := (0.35 + 1e-5*rng.Float64()) / math.Sqrt(norm)
		for j := range x {
			x[j] = 0.5 + scale*x[j]
		}
		pairs[i] = TrainingPair{Query: Query{Center: x, Theta: 0.1}, Answer: rng.NormFloat64()}
	}
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if m.K() < storeTreeMinK {
		t.Fatalf("K=%d too small to build a tree epoch", m.K())
	}
	if e := m.snap.Load().epoch; e == nil || e.tree == nil {
		t.Fatal("expected a k-d tree epoch")
	}
	slots := writerSlots(m)
	centre := make([]float64, dim)
	for j := range centre {
		centre[j] = 0.5
	}
	for trial := 0; trial < 50; trial++ {
		x := append([]float64(nil), centre...)
		// At and near the centre of the shell: every prototype ties to
		// within the shell's jitter, so nothing prunes.
		for j := range x {
			x[j] += 1e-3 * rng.NormFloat64()
		}
		q := Query{Center: x, Theta: 0.1}
		gotIdx, gotDist, err := m.View().Winner(q)
		if err != nil {
			t.Fatal(err)
		}
		wantIdx, wantDist := winnerLinearScan(slots, q)
		if !sameLinearWinner(slots, q, gotIdx, gotDist, wantIdx, wantDist) {
			t.Fatalf("trial %d: store winner %d (dist %v), linear scan %d (dist %v)",
				trial, gotIdx, gotDist, wantIdx, wantDist)
		}
	}
}

// TestFarQueryOnGridEpoch sends queries from far outside the prototypes —
// one coordinate at ±10¹² or ±10³⁰⁰, as a served APPROX statement may — to
// a d = 2 grid-epoch model. The epoch's ring walk must not step through the
// empty rings between the query and the grid (10¹³ of them at 10¹², and
// past any integer at 10³⁰⁰): PredictMean before and after, and Observe
// between them, each return within 2 s and agree with the linear reference.
func TestFarQueryOnGridEpoch(t *testing.T) {
	const vig = 0.05
	m := buildBenchModel(t, 2, 300, vig, uniformGen(2))
	if e := m.snap.Load().epoch; e == nil || e.grid == nil {
		t.Fatal("expected a grid epoch")
	}
	var centers [][]float64
	for _, far := range []float64{1e12, -1e12, 1e300, -1e300} {
		centers = append(centers, []float64{far, 0.5}, []float64{0.5, far})
	}
	for _, c := range centers {
		q := Query{Center: c, Theta: 0.1}
		checkFarPredictMean(t, m.View(), q, "before Observe")
		v := m.View()
		want, wantDist := linearWinner(v.s, q)
		var info StepInfo
		withinDeadline(t, "Observe", q, func() {
			var err error
			if info, err = m.Observe(q, 1); err != nil {
				t.Error(err)
			}
		})
		if wantDist > vig && !info.Created || wantDist <= vig && info.Winner != want {
			t.Fatalf("Observe at %v: %+v, linear winner %d at distance %v", c, info, want, wantDist)
		}
		checkFarPredictMean(t, m.View(), q, "after Observe")
	}
}

// checkFarPredictMean compares v.PredictMean(q), run under the deadline,
// with the linear reference bit for bit.
func checkFarPredictMean(t *testing.T, v View, q Query, stage string) {
	t.Helper()
	var got float64
	withinDeadline(t, "PredictMean "+stage, q, func() {
		var err error
		if got, err = v.PredictMean(q); err != nil {
			t.Error(err)
		}
	})
	if want := linearPredictMean(v.s, q); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("PredictMean %s at %v: %v, linear reference %v", stage, q.Center, got, want)
	}
}

// withinDeadline runs f and fails the test when it has not returned after
// 2 s. A call that never returns is left running: nothing can stop it.
func withinDeadline(t *testing.T, what string, q Query, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s at %v did not return within 2 s", what, q.Center)
	}
}

// linearWinner is the winner of Eq. 5 by a scan of every slot, and slot 0
// when none is at a finite distance (winnerOn's rule).
func linearWinner(s *storeSnapshot, q Query) (int, float64) {
	w, sq := vector.ArgminSqDistanceChunkedRange(s.chunked(), append(slices.Clone(q.Center), q.Theta), 0, -1, math.Inf(1))
	if w < 0 {
		w, sq = 0, math.Inf(1)
	}
	return w, math.Sqrt(sq)
}

// linearPredictMean is PredictMean answered without the epoch: the overlap
// set of overlapLinearRaw, or the linear winner when it is empty.
func linearPredictMean(s *storeSnapshot, q Query) float64 {
	var sc predictScratch
	idx, weights, total := s.overlapLinearRaw(q, &sc)
	if len(idx) == 0 {
		w, _ := linearWinner(s, q)
		return s.proto(w).eval(q.Center, q.Theta)
	}
	var y float64
	for i, k := range idx {
		y += weights[i] / total * s.proto(k).eval(q.Center, q.Theta)
	}
	return y
}

package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"llmq/internal/vector"
)

// checkOverlapAgainstLinear compares the routed overlap set (radius query
// through the epoch's grid or k-d tree when available) against the linear
// reference scan on the same snapshot. The two paths verify candidates with
// identical arithmetic in identical order, so the comparison is exact:
// same indices, bit-identical weights.
func checkOverlapAgainstLinear(t *testing.T, m *Model, q Query, stage string) {
	t.Helper()
	s := m.snap.Load()
	var scA, scB predictScratch
	gotIdx, gotW := s.overlapSet(q, &scA)
	wantIdx, wantW, wantTotal := s.overlapLinearRaw(q, &scB)
	if wantTotal > 0 {
		for i := range wantW {
			wantW[i] /= wantTotal
		}
	}
	if len(gotIdx) != len(wantIdx) {
		t.Fatalf("%s K=%d: overlap set size %d, linear %d", stage, s.k, len(gotIdx), len(wantIdx))
	}
	for i := range gotIdx {
		if gotIdx[i] != wantIdx[i] {
			t.Fatalf("%s K=%d: overlap idx[%d] = %d, linear %d", stage, s.k, i, gotIdx[i], wantIdx[i])
		}
		if gotW[i] != wantW[i] {
			t.Fatalf("%s K=%d: overlap weight[%d] = %v, linear %v (idx %d)",
				stage, s.k, i, gotW[i], wantW[i], gotIdx[i])
		}
	}
	checkAnswersAgainstLinear(t, View{s}, q, stage)
}

// checkAnswersAgainstLinear fails the test when diffAnswersFromLinear finds
// a difference, after running the block invariant once per version.
func checkAnswersAgainstLinear(t *testing.T, v View, q Query, stage string) {
	t.Helper()
	if invariantChecked.Swap(v.s) != v.s {
		checkBlockInvariant(t, v.s, stage) // O(K): once per published version
		checkSlackInvariant(t, v.s, stage)
	}
	if err := diffAnswersFromLinear(v, q); err != nil {
		t.Fatalf("%s K=%d: %v", stage, v.s.k, err)
	}
}

// diffAnswersFromLinear compares everything a View answers about q — ŷ, û,
// the local models, the neighbourhood and the raw scatter terms — against a
// reference fused from overlapLinearRaw's set and the live chunk rows, bit
// for bit, and describes the first difference. Comparing sets alone would
// pass a stale coefficient in the epoch's block; comparing answers does
// not.
func diffAnswersFromLinear(v View, q Query) (err error) {
	s := v.s
	at := make([]float64, s.dim)
	for j := range at {
		at[j] = q.Center[j] + 0.003*float64(j+1)
	}
	var sc predictScratch
	idx, deg, total := s.overlapLinearRaw(q, &sc)
	idx, deg = append([]int(nil), idx...), append([]float64(nil), deg...)
	weights := append([]float64(nil), deg...)
	if total > 0 {
		for i := range weights {
			weights[i] /= total
		}
	}
	members := idx
	if len(idx) == 0 {
		// Case 3: everything comes from the closest prototype, weight 0.
		w, _ := s.winnerQuery(q, &sc)
		members, weights = []int{w}, []float64{0}
	}
	var yhat, uhat float64
	models := make([]LocalLinear, len(members))
	for i, k := range members {
		p := s.proto(k)
		if len(idx) == 0 {
			yhat, uhat = p.eval(q.Center, q.Theta), p.evalAtPrototypeRadius(at)
		} else {
			yhat += weights[i] * p.eval(q.Center, q.Theta)
			uhat += weights[i] * p.evalAtPrototypeRadius(at)
		}
		models[i] = p.dataModel()
		models[i].Weight = weights[i]
	}
	same := func(what string, got, want float64) {
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			err = fmt.Errorf("|W|=%d: %s = %v (%016x), linear reference %v (%016x)", len(idx), what,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sameLen := func(what string, got, want int) bool {
		if err == nil && got != want {
			err = fmt.Errorf("%s has %d entries, linear reference %d", what, got, want)
		}
		return got == want
	}
	sameModel := func(what string, got, want LocalLinear) {
		same(what+" intercept", got.Intercept, want.Intercept)
		same(what+" theta", got.Theta, want.Theta)
		same(what+" weight", got.Weight, want.Weight)
		for j := range want.Slope {
			same(what+" slope", got.Slope[j], want.Slope[j])
			same(what+" centre", got.Center[j], want.Center[j])
		}
	}
	got, e := v.PredictMean(q)
	if e != nil {
		return e
	}
	same("PredictMean", got, yhat)
	if got, e = v.PredictValue(q, at); e != nil {
		return e
	}
	same("PredictValue", got, uhat)
	gotModels, e := v.Regression(q)
	if e != nil {
		return e
	}
	if sameLen("Regression", len(gotModels), len(models)) {
		for i := range models {
			sameModel("Regression", gotModels[i], models[i])
		}
	}
	hood, hoodW, e := v.Neighborhood(q)
	if e != nil {
		return e
	}
	if sameLen("Neighborhood", len(hood), len(idx)) {
		for i, k := range idx {
			want := s.proto(k).query()
			same("Neighborhood weight", hoodW[i], weights[i])
			same("Neighborhood theta", hood[i].Theta, want.Theta)
			for j := range want.Center {
				same("Neighborhood centre", hood[i].Center[j], want.Center[j])
			}
		}
	}
	res, e := v.ScatterScan(q, at, true)
	if e != nil {
		return e
	}
	if sameLen("ScatterScan", len(res.Contribs), len(idx)) {
		for i, k := range idx {
			p, c := s.proto(k), res.Contribs[i]
			same("ScatterScan degree", c.Degree, deg[i])
			same("ScatterScan mean", c.Mean, p.eval(q.Center, q.Theta))
			same("ScatterScan value", c.Value, p.evalAtPrototypeRadius(at))
			sameModel("ScatterScan", *c.Model, p.dataModel())
		}
	}
	if len(idx) == 0 {
		same("ScatterScan winner mean", res.WinnerMean, yhat)
		same("ScatterScan winner value", res.WinnerValue, uhat)
	}
	return err
}

// invariantChecked is the snapshot checkAnswersAgainstLinear last ran the
// block invariant on.
var invariantChecked atomic.Pointer[storeSnapshot]

// checkBlockInvariant asserts the contract the tree epoch's block is read
// under: for every indexed slot the snapshot treats as unwritten since the
// capture — all of them on a clean snapshot, the ones whose stamp is older
// than the epoch's step otherwise — the block's prototype row and
// coefficient row are the live rows, bit for bit.
func checkBlockInvariant(t *testing.T, s *storeSnapshot, stage string) {
	t.Helper()
	e := s.epoch
	if e == nil || e.tree == nil {
		return
	}
	rows := e.tree.Rows()
	for p, id := range e.tree.IDs() {
		k := int(id)
		if !s.clean && s.stamp(k) >= e.step {
			continue
		}
		blockRow, blockCoef := rows[p*s.width:(p+1)*s.width], e.coefs[p*s.coefW:(p+1)*s.coefW]
		for j, v := range s.row(k) {
			if math.Float64bits(v) != math.Float64bits(blockRow[j]) {
				t.Fatalf("%s: slot %d (stamp %d, epoch step %d, clean %v): block row[%d] = %v, live %v",
					stage, k, s.stamp(k), e.step, s.clean, j, blockRow[j], v)
			}
		}
		for j, v := range s.coefRow(k) {
			if math.Float64bits(v) != math.Float64bits(blockCoef[j]) {
				t.Fatalf("%s: slot %d (stamp %d, epoch step %d, clean %v): block coef[%d] = %v, live %v",
					stage, k, s.stamp(k), e.step, s.clean, j, blockCoef[j], v)
			}
		}
	}
}

// checkSlackInvariant asserts the bound every pruning search widens by: for
// every slot the epoch indexes, the live row lies within the snapshot's
// slack of the epoch's copy of it.
func checkSlackInvariant(t *testing.T, s *storeSnapshot, stage string) {
	t.Helper()
	e := s.epoch
	if e == nil {
		return
	}
	for k := range e.slotPos {
		stale := e.stale(k)
		if stale == nil {
			continue
		}
		if d := math.Sqrt(vector.SqDistanceFlat(stale, s.row(k))); !(d <= s.slack) {
			t.Fatalf("%s: slot %d lies %v from the epoch's copy, past the slack %v", stage, k, d, s.slack)
		}
	}
}

// TestOverlapSetMatchesLinearScan is the exactness property test of the
// radius-query overlap path: across dimensionalities (grid epochs for
// d+1 ≤ 4, k-d tree epochs above), workload shapes (uniform and clustered),
// and training stages (mid-training with drifted prototypes and un-indexed
// tails, and after further training), the grid/tree range query must
// reproduce the linear scan's W(q) exactly — indices and weights.
func TestOverlapSetMatchesLinearScan(t *testing.T) {
	vigilance := map[int]float64{1: 0.02, 2: 0.05, 3: 0.07, 5: 0.2, 8: 0.3}
	// Clustered queries concentrate, so the spawn distance must be tighter
	// for the prototype set to clear the epoch size gates.
	clusteredVigilance := map[int]float64{1: 0.01, 2: 0.03, 3: 0.05, 5: 0.08, 8: 0.08}
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for _, workload := range []string{"uniform", "clustered"} {
			gen := uniformGen(dim)
			vig := vigilance[dim]
			if workload == "clustered" {
				gen = clusteredGen(dim, 30, 0.05, int64(90+dim))
				vig = clusteredVigilance[dim]
			}
			rng := rand.New(rand.NewSource(int64(80 + dim)))
			cfg := DefaultConfig(dim)
			cfg.Vigilance = vig
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for phase := 0; phase < 4; phase++ {
				for i := 0; i < 350; i++ {
					if _, err := m.Observe(gen(rng), rng.NormFloat64()); err != nil {
						t.Fatal(err)
					}
				}
				// Mid-training: prototypes have drifted since the last epoch
				// rebuild and fresh spawns sit in the un-indexed tail, so the
				// range query must honour the slack and scan the tail.
				for trial := 0; trial < 80; trial++ {
					checkOverlapAgainstLinear(t, m, gen(rng), workload+"/mid-training")
				}
			}
			if s := m.snap.Load(); s.epoch == nil {
				t.Fatalf("dim %d %s: K=%d never built a read epoch", dim, workload, s.k)
			} else if dim+1 > storeGridMaxWidth && s.epoch.tree == nil {
				t.Fatalf("dim %d %s: wide epoch should be a k-d tree", dim, workload)
			}
		}
	}
}

// TestOverlapSetMatchesQueryAPI cross-checks the flat-store overlap path
// against an independent reference built from the public Query API on deep
// LLM copies: same member set, weights equal to within kernel reassociation
// rounding, weights summing to 1.
func TestOverlapSetMatchesQueryAPI(t *testing.T) {
	const dim = 2
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.04
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if _, err := m.Observe(randQuery(rng, dim), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	slots := writerSlots(m)
	s := m.snap.Load()
	for trial := 0; trial < 200; trial++ {
		q := randQuery(rng, dim)
		var sc predictScratch
		idx, weights := s.overlapSet(q, &sc)
		var wantIdx []int
		var wantDeg []float64
		var total float64
		for k, e := range slots {
			if e.row == nil {
				continue
			}
			if deg := q.OverlapDegree(e.proto().query()); deg > 0 {
				wantIdx = append(wantIdx, k)
				wantDeg = append(wantDeg, deg)
				total += deg
			}
		}
		if len(idx) != len(wantIdx) {
			t.Fatalf("trial %d: overlap size %d, Query API %d", trial, len(idx), len(wantIdx))
		}
		var sum float64
		for i := range idx {
			if idx[i] != wantIdx[i] {
				t.Fatalf("trial %d: idx[%d] = %d, want %d", trial, i, idx[i], wantIdx[i])
			}
			want := wantDeg[i] / total
			if math.Abs(weights[i]-want) > 1e-9 {
				t.Fatalf("trial %d: weight[%d] = %v, want %v", trial, i, weights[i], want)
			}
			sum += weights[i]
		}
		if len(idx) > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: weights sum to %v", trial, sum)
		}
	}
}

// TestPinnedViewDuringTraining is the snapshot-isolation property test, run
// under -race by CI: while a writer streams training pairs, readers pin a
// View and verify (a) the version's metadata is frozen, (b) repeating a
// prediction on the pinned View is bit-identical no matter how far training
// has advanced, and (c) a Save on the live model serializes a consistent
// version (LLM count matches its own header, never a torn mix).
func TestPinnedViewDuringTraining(t *testing.T) {
	const dim, pairs, readers = 2, 1500, 4
	cfg := DefaultConfig(dim)
	cfg.ResolutionA = 0.05
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = pairs * 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(randQuery(rand.New(rand.NewSource(1)), dim), 0.5); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				v := m.View()
				k, steps := v.K(), v.Steps()
				q := randQuery(rng, dim)
				y1, err := v.PredictMean(q)
				if err != nil {
					t.Errorf("PredictMean: %v", err)
					return
				}
				if _, err := v.Regression(q); err != nil {
					t.Errorf("Regression: %v", err)
					return
				}
				// The pinned version must not move underneath us.
				y2, err := v.PredictMean(q)
				if err != nil {
					t.Errorf("PredictMean (repeat): %v", err)
					return
				}
				if y1 != y2 {
					t.Errorf("pinned View drifted: %v then %v", y1, y2)
					return
				}
				if v.K() != k || v.Steps() != steps {
					t.Errorf("pinned View metadata drifted: K %d→%d steps %d→%d", k, v.K(), steps, v.Steps())
					return
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Errorf("Load of live Save: %v", err)
					return
				}
				if loaded.K() == 0 {
					t.Error("Load of live Save lost all prototypes")
					return
				}
			}
		}(int64(300 + r))
	}

	wrng := rand.New(rand.NewSource(2))
	for i := 0; i < pairs; i++ {
		if _, err := m.Observe(randQuery(wrng, dim), math.Sin(float64(i))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	close(done)
	wg.Wait()
	if m.K() < 2 {
		t.Fatalf("expected the workload to spawn prototypes, K=%d", m.K())
	}
}

// TestViewAcrossTrainBatch verifies the zero-downtime swap semantics: a
// View pinned before a TrainBatch answers from the pre-batch version, and a
// View taken after sees the whole batch at once.
func TestViewAcrossTrainBatch(t *testing.T) {
	const dim = 2
	rng := rand.New(rand.NewSource(33))
	cfg := DefaultConfig(dim)
	cfg.Vigilance = 0.05
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]TrainingPair, 300)
	for i := range warm {
		warm[i] = TrainingPair{Query: randQuery(rng, dim), Answer: rng.NormFloat64()}
	}
	if _, err := m.TrainBatch(warm); err != nil {
		t.Fatal(err)
	}
	before := m.View()
	q := randQuery(rng, dim)
	yBefore, err := before.PredictMean(q)
	if err != nil {
		t.Fatal(err)
	}
	more := make([]TrainingPair, 500)
	for i := range more {
		more[i] = TrainingPair{Query: randQuery(rng, dim), Answer: rng.NormFloat64()}
	}
	if _, err := m.TrainBatch(more); err != nil {
		t.Fatal(err)
	}
	if got, _ := before.PredictMean(q); got != yBefore {
		t.Fatalf("pre-batch View changed: %v → %v", yBefore, got)
	}
	if before.Steps() == m.Steps() {
		t.Fatal("post-batch model did not advance")
	}
	after := m.View()
	if after.Steps() != m.Steps() || after.K() != m.K() {
		t.Fatalf("fresh View lags the model: steps %d vs %d", after.Steps(), m.Steps())
	}
}

package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"llmq/internal/vector"
)

func randQuery(rng *rand.Rand, dim int) Query {
	c := make([]float64, dim)
	for j := range c {
		c[j] = rng.Float64()
	}
	return Query{Center: vector.Of(c...), Theta: 0.02 + 0.1*rng.Float64()}
}

// TestConcurrentReadersDuringTraining hammers every read API from multiple
// goroutines while a writer streams training pairs into the model. Run with
// -race (the CI workflow does) to verify the locking discipline: readers
// must never observe a partially applied AVQ/SGD step.
func TestConcurrentReadersDuringTraining(t *testing.T) {
	const dim, pairs, readers = 2, 2000, 8
	cfg := DefaultConfig(dim)
	cfg.ResolutionA = 0.05 // many prototypes → many spawn + drift steps
	cfg.Gamma = 1e-12      // never converge during the test
	cfg.MinGammaSteps = pairs * 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed one prototype so readers never hit ErrNotTrained.
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
				q := randQuery(rng, dim)
				if _, err := m.PredictMean(q); err != nil {
					t.Errorf("PredictMean: %v", err)
					return
				}
				if _, err := m.Regression(q); err != nil {
					t.Errorf("Regression: %v", err)
					return
				}
				x := []float64{rng.Float64(), rng.Float64()}
				if _, err := m.PredictValue(q, x); err != nil {
					t.Errorf("PredictValue: %v", err)
					return
				}
				if _, _, err := m.Winner(q); err != nil {
					t.Errorf("Winner: %v", err)
					return
				}
				_ = m.K()
				_ = m.Converged()
				_ = m.LLMs()
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
			}
		}(int64(100 + r))
	}

	wrng := rand.New(rand.NewSource(2))
	for i := 0; i < pairs; i++ {
		q := randQuery(wrng, dim)
		if _, err := m.Observe(q, math.Sin(float64(i))); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	close(done)
	wg.Wait()
	if m.K() < 2 {
		t.Fatalf("expected the workload to spawn prototypes, K=%d", m.K())
	}
}

// winnerLinearScan replicates the pre-store winner search: a scan over the
// per-LLM structs taking a square root per candidate, first strict minimum
// wins. It is the reference the indexed/flat search must reproduce.
func winnerLinearScan(llms []*LLM, q Query) (int, float64) {
	best, bestDist := 0, math.Inf(1)
	for k, l := range llms {
		d := math.Sqrt(vector.SqDistance(q.Center, l.CenterPrototype) +
			(q.Theta-l.ThetaPrototype)*(q.Theta-l.ThetaPrototype))
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	return best, bestDist
}

// TestWinnerMatchesLinearScan is the exactness property test: on random
// workloads across dimensionalities (covering the grid-indexed path for
// d+1 <= 4 and the k-d tree path above — including the tree's scan-budget
// bail on uniform wide workloads), the store's winner must agree with the
// linear-scan baseline — same prototype index, or an equal distance when
// several prototypes tie to within reassociation rounding.
func TestWinnerMatchesLinearScan(t *testing.T) {
	// Vigilance per dimensionality, small enough that the random workload
	// spawns a large prototype set (> storeGridMinK where the grid applies).
	vigilance := map[int]float64{1: 0.02, 2: 0.05, 3: 0.07, 5: 0.2, 8: 0.3}
	for _, dim := range []int{1, 2, 3, 5, 8} {
		rng := rand.New(rand.NewSource(int64(40 + dim)))
		cfg := DefaultConfig(dim)
		cfg.Vigilance = vigilance[dim]
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
		llms := m.LLMs()
		if dim+1 <= storeGridMaxWidth && m.K() < storeGridMinK {
			t.Fatalf("dim %d: K=%d too small to exercise the grid path", dim, m.K())
		}
		if e := m.snap.Load().epoch; e != nil {
			if dim+1 <= storeGridMaxWidth && e.grid == nil {
				t.Fatalf("dim %d: epoch should route to the grid", dim)
			}
			if dim+1 > storeGridMaxWidth && e.tree == nil {
				t.Fatalf("dim %d: epoch should route to the k-d tree", dim)
			}
		}
		for trial := 0; trial < 300; trial++ {
			q := randQuery(rng, dim)
			gotIdx, gotDist, err := m.Winner(q)
			if err != nil {
				t.Fatal(err)
			}
			wantIdx, wantDist := winnerLinearScan(llms, q)
			if gotIdx != wantIdx && math.Abs(gotDist-wantDist) > 1e-9*(1+wantDist) {
				t.Fatalf("dim %d K=%d: store winner %d (dist %v), linear scan %d (dist %v)",
					dim, m.K(), gotIdx, gotDist, wantIdx, wantDist)
			}
		}
	}
}

// TestWinnerMatchesLinearScanClustered exercises the k-d tree's pruning
// path (clustered query spaces, where the bounding boxes actually prune)
// and its drift-slack accounting: winners are checked mid-training, while
// prototypes have drifted since the last tree rebuild, and again after
// further training.
func TestWinnerMatchesLinearScanClustered(t *testing.T) {
	for _, dim := range []int{5, 8} {
		gen := clusteredGen(dim, 40, 0.05, int64(60+dim))
		rng := rand.New(rand.NewSource(int64(70 + dim)))
		cfg := DefaultConfig(dim)
		cfg.Vigilance = 0.08
		cfg.Gamma = 1e-12
		cfg.MinGammaSteps = 1 << 30
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			llms := m.LLMs()
			for trial := 0; trial < 120; trial++ {
				q := gen(rng)
				gotIdx, gotDist, err := m.Winner(q)
				if err != nil {
					t.Fatal(err)
				}
				wantIdx, wantDist := winnerLinearScan(llms, q)
				if gotIdx != wantIdx && math.Abs(gotDist-wantDist) > 1e-9*(1+wantDist) {
					t.Fatalf("dim %d %s K=%d: store winner %d (dist %v), linear scan %d (dist %v)",
						dim, stage, m.K(), gotIdx, gotDist, wantIdx, wantDist)
				}
			}
		}
		for phase := 0; phase < 4; phase++ {
			for i := 0; i < 400; i++ {
				if _, err := m.Observe(gen(rng), rng.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			}
			// Mid-training: prototypes have drifted since the last rebuild,
			// so the winner search must honour the staleness slack.
			check("mid-training")
		}
		if m.K() < storeTreeMinK {
			t.Fatalf("dim %d: K=%d too small to exercise the k-d tree", dim, m.K())
		}
		if e := m.snap.Load().epoch; e == nil || e.tree == nil {
			t.Fatalf("dim %d: expected a k-d tree epoch", dim)
		}
	}
}

// TestTrainBatchMatchesTrain verifies that the single-lock bulk ingestion
// path applies exactly the same sequential updates as per-step Train.
func TestTrainBatchMatchesTrain(t *testing.T) {
	const dim = 2
	rng := rand.New(rand.NewSource(77))
	pairs := make([]TrainingPair, 600)
	for i := range pairs {
		pairs[i] = TrainingPair{Query: randQuery(rng, dim), Answer: rng.NormFloat64()}
	}
	cfg := DefaultConfig(dim)
	a, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Train(pairs)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.TrainBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Steps != resB.Steps || resA.K != resB.K || resA.Converged != resB.Converged {
		t.Fatalf("Train %+v vs TrainBatch %+v diverged", resA, resB)
	}
	la, lb := a.LLMs(), b.LLMs()
	for k := range la {
		if !la[k].CenterPrototype.Equal(lb[k].CenterPrototype) ||
			la[k].ThetaPrototype != lb[k].ThetaPrototype ||
			la[k].Intercept != lb[k].Intercept {
			t.Fatalf("prototype %d diverged between Train and TrainBatch", k)
		}
	}
}

// TestWinnerAfterReload verifies the flat store (and its index) is rebuilt
// by Load, so a deserialized model serves the same winners.
func TestWinnerAfterReload(t *testing.T) {
	const dim = 2
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig(dim)
	cfg.ResolutionA = 0.05
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		if _, err := m.Observe(randQuery(rng, dim), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := randQuery(rng, dim)
		i1, d1, err := m.Winner(q)
		if err != nil {
			t.Fatal(err)
		}
		i2, d2, err := loaded.Winner(q)
		if err != nil {
			t.Fatal(err)
		}
		if i1 != i2 || d1 != d2 {
			t.Fatalf("winner diverged after reload: (%d, %v) vs (%d, %v)", i1, d1, i2, d2)
		}
	}
}

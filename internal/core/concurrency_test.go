package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"llmq/internal/vector"
)

func randQuery(rng *rand.Rand, dim int) Query {
	c := make([]float64, dim)
	for j := range c {
		c[j] = rng.Float64()
	}
	return Query{Center: c, Theta: 0.02 + 0.1*rng.Float64()}
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
				if _, _, err := m.View().Winner(q); err != nil {
					t.Errorf("Winner: %v", err)
					return
				}
				_ = m.K()
				_ = m.View().Converged()
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

// winnerLinearScan is the reference winner over writerSlots(m): a scan of
// the slots taking the vector kernels' one squared distance over the
// query-space rows [x..., θ], first strict minimum wins, and the answer a
// slot id. The indexed/flat search must reproduce its
// distance to the bit.
func winnerLinearScan(slots []slotState, q Query) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for k, e := range slots {
		if d := slotDist(e, q); d < bestDist || best < 0 {
			best, bestDist = k, d
		}
	}
	return best, bestDist
}

// slotDist is the query-space distance from q to e's prototype.
func slotDist(e slotState, q Query) float64 {
	return math.Sqrt(vector.SqDistanceFlat(e.row, append(slices.Clone(q.Center), q.Theta)))
}

// sameLinearWinner reports whether the store's winner (idx, dist) is the
// linear scan's (want, wantDist): the distance to the bit, and the same
// slot unless idx is at exactly that distance too — an exact tie, which the
// tree breaks in leaf order.
func sameLinearWinner(slots []slotState, q Query, idx int, dist float64, want int, wantDist float64) bool {
	if math.Float64bits(dist) != math.Float64bits(wantDist) || idx < 0 || idx >= len(slots) {
		return false
	}
	return idx == want || math.Float64bits(slotDist(slots[idx], q)) == math.Float64bits(wantDist)
}

// TestWinnerMatchesLinearScan is the exactness property test: on random
// workloads across dimensionalities (covering the grid-indexed path for
// d+1 <= 4 and the k-d tree path above — including the tree's scan-budget
// bail on uniform wide workloads), and on a bounded model just after an
// eviction pass, the store's winner must agree with the linear-scan
// baseline — the same slot id and the same distance to the bit, a
// different slot only where several tie exactly.
func TestWinnerMatchesLinearScan(t *testing.T) {
	// Vigilance per dimensionality, small enough that the random workload
	// spawns a large prototype set (> storeGridMinK where the grid applies).
	vigilance := map[int]float64{1: 0.02, 2: 0.05, 3: 0.07, 5: 0.2, 8: 0.3}
	type input struct {
		dim, max int // max > 0 bounds the model at max prototypes
	}
	inputs := []input{{1, 0}, {2, 0}, {3, 0}, {5, 0}, {8, 0}, {2, 100}}
	for _, in := range inputs {
		dim := in.dim
		rng := rand.New(rand.NewSource(int64(40 + dim + in.max)))
		cfg := DefaultConfig(dim)
		cfg.Vigilance = vigilance[dim]
		cfg.Gamma = 1e-12
		cfg.MinGammaSteps = 1 << 30
		if in.max > 0 {
			cfg.MaxPrototypes = in.max
			cfg.Eviction = Eviction{HalfLife: 200}
		}
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		observe := func() StepInfo {
			info, err := m.Observe(randQuery(rng, dim), rng.NormFloat64())
			if err != nil {
				t.Fatal(err)
			}
			return info
		}
		for i := 0; i < 1200; i++ {
			observe()
		}
		// A bounded model trains on until an eviction pass, and stops right
		// after it.
		for in.max > 0 && observe().Evicted == 0 {
		}
		slots := writerSlots(m)
		if in.max > 0 && m.K() > in.max {
			t.Fatalf("bounded model: K=%d over %d slots, want K <= %d", m.K(), len(slots), in.max)
		}
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
		v := m.View()
		for trial := 0; trial < 300; trial++ {
			q := randQuery(rng, dim)
			gotIdx, gotDist, err := v.Winner(q)
			if err != nil {
				t.Fatal(err)
			}
			wantIdx, wantDist := winnerLinearScan(slots, q)
			if !sameLinearWinner(slots, q, gotIdx, gotDist, wantIdx, wantDist) {
				t.Fatalf("dim %d max %d K=%d: store winner %d (dist %v), linear scan %d (dist %v)",
					dim, in.max, m.K(), gotIdx, gotDist, wantIdx, wantDist)
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
			slots := writerSlots(m)
			for trial := 0; trial < 120; trial++ {
				q := gen(rng)
				gotIdx, gotDist, err := m.View().Winner(q)
				if err != nil {
					t.Fatal(err)
				}
				wantIdx, wantDist := winnerLinearScan(slots, q)
				if !sameLinearWinner(slots, q, gotIdx, gotDist, wantIdx, wantDist) {
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

// TestBatchSplitDoesNotChangeTraining pins what every durable path leans
// on — the crash and replication harnesses' children, /train and Recover's
// chunked replay all cut one stream into batches of their own sizes: one
// stream trained as a single batch, as one-pair batches and as seeded
// random-size batches ends in the same state (StateHash) and answers every
// probe with the same bits. The bounded case covers spawn, eviction and
// merge, whose order a batch boundary must not move.
func TestBatchSplitDoesNotChangeTraining(t *testing.T) {
	const dim = 2
	bounded := DefaultConfig(dim)
	bounded.Vigilance = 0.2
	bounded.Gamma = 1e-12
	bounded.MinGammaSteps = 1 << 30
	bounded.MaxPrototypes = 12
	bounded.Eviction = Eviction{HalfLife: 64}
	bounded.MergeOnEvict = true
	for name, cfg := range map[string]Config{"default": DefaultConfig(dim), "bounded": bounded} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			pairs := make([]TrainingPair, 600)
			for i := range pairs {
				pairs[i] = TrainingPair{Query: randQuery(rng, dim), Answer: rng.NormFloat64()}
			}
			probes := make([]Query, 100)
			for i := range probes {
				probes[i] = randQuery(rng, dim)
			}
			// train feeds pairs in batches whose sizes next draws.
			train := func(next func(left int) int) *Model {
				m, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(pairs); {
					n := next(len(pairs) - i)
					if _, err := m.TrainBatch(pairs[i : i+n]); err != nil {
						t.Fatal(err)
					}
					i += n
				}
				return m
			}
			sizes := rand.New(rand.NewSource(5))
			ref := train(func(left int) int { return left })
			if cfg.MaxPrototypes > 0 {
				uncapped := cfg
				uncapped.MaxPrototypes = 0
				free, err := NewModel(uncapped)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := free.TrainBatch(pairs); err != nil || free.K() <= cfg.MaxPrototypes {
					t.Fatalf("uncapped K = %d (%v): the cap %d never evicted", free.K(), err, cfg.MaxPrototypes)
				}
			}
			for split, m := range map[string]*Model{
				"one-pair":    train(func(int) int { return 1 }),
				"random-size": train(func(left int) int { return min(left, 1+sizes.Intn(64)) }),
			} {
				if got, want := mustStateHash(t, m), mustStateHash(t, ref); got != want {
					t.Fatalf("%s batches: StateHash %s, one batch %s", split, got, want)
				}
				for _, q := range probes {
					a, errA := ref.PredictMean(q)
					b, errB := m.PredictMean(q)
					if errA != nil || errB != nil || math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s batches: PredictMean(%v) = %v (%v), one batch %v (%v)", split, q, b, errB, a, errA)
					}
				}
			}
		})
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
		i1, d1, err := m.View().Winner(q)
		if err != nil {
			t.Fatal(err)
		}
		i2, d2, err := loaded.View().Winner(q)
		if err != nil {
			t.Fatal(err)
		}
		if i1 != i2 || d1 != d2 {
			t.Fatalf("winner diverged after reload: (%d, %v) vs (%d, %v)", i1, d1, i2, d2)
		}
	}
}

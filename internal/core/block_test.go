package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// blockTestModel is a d=8 model on the sheet_wide geometry (a few clusters,
// vigilance 0.05, so nearly every pair spawns) grown past the tree epoch's
// size gate.
func blockTestModel(t testing.TB, gen queryGen, pairs int, cfgEdit func(*Config)) *Model {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Vigilance = 0.05
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := make([]TrainingPair, pairs)
	for i := range batch {
		batch[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
	}
	if _, err := m.TrainBatch(batch); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkViewAgainstLinear runs the answer-level comparison (and, once per
// version, the block invariant) on a few queries of gen plus a broad one.
func checkViewAgainstLinear(t *testing.T, v View, gen queryGen, rng *rand.Rand, stage string) {
	t.Helper()
	for i := 0; i < 6; i++ {
		checkAnswersAgainstLinear(t, v, gen(rng), stage)
	}
	q := gen(rng)
	q.Theta = 2
	checkAnswersAgainstLinear(t, v, q, stage+"/broad")
}

// TestBlockMidStepRebuild walks a tree-epoch model one Observe at a time and
// checks every published version's answers against the linear reference. A
// winner's row sync can trigger the epoch rebuild in the middle of its own
// step — before the same step's coefficient sync — so the block holds that
// winner's pre-update coefficients under a stamp equal to the epoch's step:
// the staleness comparison must be ≥, and the test requires the case to
// occur and queries that very winner when it does.
func TestBlockMidStepRebuild(t *testing.T) {
	gen := wideGen(3, 9)
	m := blockTestModel(t, gen, 400, nil)
	if e := m.snap.Load().epoch; e == nil || e.tree == nil {
		t.Fatalf("K=%d: expected a k-d tree epoch", m.K())
	}
	rng := rand.New(rand.NewSource(6))
	midStep := 0
	for step := 0; step < 600; step++ {
		// Half the pairs land a fraction of the vigilance away from an
		// existing prototype: an update whose drift can trip the rebuild.
		q := gen(rng)
		if step%2 == 0 {
			s := m.snap.Load()
			q = s.proto(rng.Intn(s.k)).query()
			q.Center[rng.Intn(8)] += 0.04
		}
		before := m.store.epoch
		info, err := m.Observe(q, rng.NormFloat64())
		if err != nil {
			t.Fatal(err)
		}
		s := m.snap.Load()
		stage := fmt.Sprintf("step %d", info.Step)
		if !info.Created && s.epoch != before {
			// The rebuild fired inside an update step: its winner's
			// coefficients were synced after the block captured them.
			midStep++
			if s.clean || s.epoch.step != info.Step || s.stamp(info.Winner) != info.Step {
				t.Fatalf("%s: mid-step rebuild published clean=%v epoch step %d winner stamp %d",
					stage, s.clean, s.epoch.step, s.stamp(info.Winner))
			}
			stage += " (mid-step rebuild)"
		}
		w := s.proto(info.Winner).query()
		checkAnswersAgainstLinear(t, View{s}, w, stage+"/winner")
		checkAnswersAgainstLinear(t, View{s}, gen(rng), stage)
	}
	if midStep == 0 {
		t.Fatal("no epoch rebuild fired inside an update step; the ≥ comparison went untested")
	}
}

// TestBlockInvariantAcrossHistory runs the block invariant and the
// answer-level comparison at every publication of a history that goes
// through each way a store comes to exist or change: TrainBatch, eviction
// bursts with and without merge-on-evict, SetCapacity, Save→Load,
// Checkpoint→Load, Fuse and Split.
func TestBlockInvariantAcrossHistory(t *testing.T) {
	gen := wideGen(3, 11)
	rng := rand.New(rand.NewSource(12))
	train := func(m *Model, n int, stage string) {
		t.Helper()
		pairs := make([]TrainingPair, n)
		for i := range pairs {
			pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			t.Fatal(err)
		}
		checkViewAgainstLinear(t, m.View(), gen, rng, stage)
	}
	reload := func(m *Model, write func(*Model, *bytes.Buffer) error, stage string) *Model {
		t.Helper()
		var buf bytes.Buffer
		if err := write(m, &buf); err != nil {
			t.Fatal(err)
		}
		out, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkViewAgainstLinear(t, out.View(), gen, rng, stage)
		return out
	}
	save := func(m *Model, b *bytes.Buffer) error { return m.Save(b) }
	checkpoint := func(m *Model, b *bytes.Buffer) error { return m.Checkpoint(b) }

	for _, merge := range []bool{false, true} {
		name := fmt.Sprintf("merge=%v", merge)
		m := blockTestModel(t, gen, 300, func(c *Config) { c.MaxPrototypes, c.MergeOnEvict = 400, merge })
		for i := 0; i < 12; i++ {
			train(m, 37, name+"/bounded stream") // crosses the cap: eviction bursts
		}
		if err := m.SetCapacity(300, m.Config().Eviction, merge); err != nil {
			t.Fatal(err)
		}
		checkViewAgainstLinear(t, m.View(), gen, rng, name+"/SetCapacity")
		train(m, 50, name+"/after SetCapacity")
		loaded := reload(m, save, name+"/Save→Load")
		train(loaded, 50, name+"/after Save→Load")
		loaded = reload(m, checkpoint, name+"/Checkpoint→Load")
		train(loaded, 50, name+"/after Checkpoint→Load")

		parts, err := Split(m, 2, func(c []float64, _ float64) int {
			if c[0] < 0.5 {
				return 0
			}
			return 1
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			checkViewAgainstLinear(t, p.View(), gen, rng, fmt.Sprintf("%s/Split[%d]", name, i))
		}
		fused, err := Fuse(m.Config(), parts...)
		if err != nil {
			t.Fatal(err)
		}
		checkViewAgainstLinear(t, fused.View(), gen, rng, name+"/Fuse")
		train(fused, 50, name+"/after Fuse")
	}
}

// TestBlockReadersDuringTraining is the block path's race test (CI runs the
// package under -race): four readers answer from pinned and freshly
// re-pinned Views of a wide model while a TrainBatch stream publishes
// versions — clean ones, unclean ones with tails, and the rebuilds between
// them — and every answer must equal the linear reference of the same
// View.
func TestBlockReadersDuringTraining(t *testing.T) {
	gen := wideGen(3, 13)
	m := blockTestModel(t, gen, 600, nil)
	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pinned := m.View()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%8 == 7 {
					pinned = m.View() // re-pin: a version the writer has since left behind
				}
				for _, v := range []View{pinned, m.View()} {
					if err := diffAnswersFromLinear(v, gen(rng)); err != nil {
						t.Errorf("version at step %d: %v", v.Steps(), err)
						return
					}
				}
			}
		}(int64(700 + r))
	}
	wrng := rand.New(rand.NewSource(14))
	for b := 0; b < 60; b++ {
		pairs := make([]TrainingPair, 16)
		for i := range pairs {
			pairs[i] = TrainingPair{Query: gen(wrng), Answer: wrng.NormFloat64()}
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	checkViewAgainstLinear(t, m.View(), gen, wrng, "after the stream")
}

// fuzzBase returns a fresh copy of a d-dimensional model of a few hundred
// clustered prototypes — above the epoch size gates, so its epoch is a k-d
// tree whose reads go through the block at d = 5 and 8 and a grid at d = 2 —
// decoded from a checkpoint built once. The d = 2 model packs its clusters
// at a finer vigilance, so that it too holds more prototypes than the
// fuzzed capacities.
var fuzzBase = func() func(tb testing.TB, dim int) *Model {
	var mu sync.Mutex
	cache := map[int][]byte{}
	return func(tb testing.TB, dim int) *Model {
		tb.Helper()
		mu.Lock()
		defer mu.Unlock()
		if cache[dim] == nil {
			cfg := DefaultConfig(dim)
			cfg.Vigilance = 0.05
			pairs := make([]TrainingPair, 480)
			if dim == 2 {
				cfg.Vigilance = 0.02
				pairs = make([]TrainingPair, 960)
			}
			cfg.Gamma = 1e-12
			cfg.MinGammaSteps = 1 << 30
			m, err := NewModel(cfg)
			if err != nil {
				tb.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(dim)))
			gen := clusteredThetaGen(dim, 3, 0.04, 0.05, 0.15, 21)
			for i := range pairs {
				pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
			}
			if _, err := m.TrainBatch(pairs); err != nil {
				tb.Fatal(err)
			}
			if m.K() < 2*storeTreeMinK {
				tb.Fatalf("fuzz base model has K=%d, want at least %d", m.K(), 2*storeTreeMinK)
			}
			var buf bytes.Buffer
			if err := m.Checkpoint(&buf); err != nil {
				tb.Fatal(err)
			}
			cache[dim] = buf.Bytes()
		}
		m, err := Load(bytes.NewReader(cache[dim]))
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
}()

// FuzzOverlapRouted turns bytes into a short history on a tree- or
// grid-epoch model — single pairs near and far from existing prototypes,
// seeded batches, an eviction burst, capacity changes with and without
// merge-on-evict — and a query after every operation: the routed overlap
// set and every fused answer must equal the linear reference of the same
// version bit for bit, and nothing may panic.
func FuzzOverlapRouted(f *testing.F) {
	f.Add([]byte{0, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 3, 7, 40, 128, 128, 128, 128, 128, 128, 128, 128, 20})
	f.Add([]byte{1, 1, 200, 1, 3, 9, 60, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2, 150, 0, 3, 11, 30, 90, 90, 90, 90, 90, 90, 90, 90, 255})
	f.Add([]byte{1, 3, 1, 250, 3, 2, 250, 3, 3, 250, 1, 140, 1, 3, 4, 250, 100, 110, 120, 130, 140, 150, 160, 170, 8})
	f.Add([]byte{2, 1, 200, 1, 3, 9, 60, 2, 150, 0, 3, 11, 30, 90, 90, 90, 6, 40, 1, 3, 4, 250, 100, 110, 120, 8})
	f.Fuzz(func(t *testing.T, b []byte) {
		next := func() byte {
			if len(b) == 0 {
				return 0
			}
			v := b[0]
			b = b[1:]
			return v
		}
		dim := []int{5, 8, 2}[next()%3]
		m := fuzzBase(t, dim)
		near := 0.9 * m.cfg.Vigilance
		// Coordinates and radii come from bytes: the clusters sit inside
		// [0, 1]^d, a byte spans a little more than that.
		coord := func() float64 { return -0.1 + 1.2*float64(next())/255 }
		query := func() Query {
			c := make([]float64, dim)
			for j := range c {
				c[j] = coord()
			}
			theta := float64(next()) / 255
			if theta > 0.9 {
				theta *= 4 // broad: covers most prototypes
			}
			return Query{Center: c, Theta: theta}
		}
		for ops := 0; ops < 24 && len(b) > 0; ops++ {
			switch op := next(); op % 4 {
			case 0: // one pair anywhere
				if _, err := m.Observe(query(), float64(next())/64); err != nil {
					t.Fatal(err)
				}
			case 1: // one pair a fraction of the vigilance from a prototype
				s := m.snap.Load()
				q := s.proto(int(next()) % s.k).query()
				q.Center[int(next())%dim] += near * float64(next()) / 255
				if _, err := m.Observe(q, float64(next())/64); err != nil {
					t.Fatal(err)
				}
			case 2: // eviction burst or capacity change
				max := 140 + int(next())
				if err := m.SetCapacity(max, m.Config().Eviction, op&4 != 0); err != nil {
					t.Fatal(err)
				}
			case 3: // a seeded batch
				rng := rand.New(rand.NewSource(int64(next())))
				gen := clusteredThetaGen(dim, 3, 0.04, 0.05, 0.15, 21+int64(next()&1))
				pairs := make([]TrainingPair, 1+int(next())%48)
				for i := range pairs {
					pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
				}
				if _, err := m.TrainBatch(pairs); err != nil {
					t.Fatal(err)
				}
			}
			checkOverlapAgainstLinear(t, m, query(), fmt.Sprintf("op %d", ops))
		}
		checkOverlapAgainstLinear(t, m, query(), "final")
	})
}

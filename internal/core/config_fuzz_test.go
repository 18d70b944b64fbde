package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"llmq/internal/wal"
)

// fuzzBytes hands out the fuzzer's input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzEviction maps two bytes to a policy: either one, with any half-life,
// negative and zero included.
func fuzzEviction(b *fuzzBytes) Eviction {
	return Eviction{Recency: b.next()&1 != 0, HalfLife: int(int8(b.next())) * 37}
}

// fuzzConfig maps bytes to a Config that NewModel accepts: any solver,
// rate-by-prototype and intercept setting, γ from 1 down to 2⁻⁴⁷ (so some
// histories converge), windows at and around their defaults, an uncapped or
// capped model under either policy with any half-life and merge setting,
// and the vigilance given directly or derived from ResolutionA.
func fuzzConfig(b *fuzzBytes) Config {
	flags := b.next()
	cfg := Config{
		Dim:                     1 + int(b.next()%3),
		Gamma:                   math.Ldexp(1, -int(b.next()%48)),
		InitInterceptWithAnswer: flags&1 != 0,
		RateByPrototype:         flags&2 != 0,
		MinGammaSteps:           int(b.next()) - 8,
		ConvergenceWindow:       int(b.next()%64) - 8,
		MaxPrototypes:           int(b.next() % 48),
		Eviction:                fuzzEviction(b),
		MergeOnEvict:            flags&4 != 0,
	}
	if flags&8 != 0 {
		cfg.CoefficientSolver = SolverSGD
	}
	if flags&16 != 0 {
		cfg.ResolutionA = (1 + float64(b.next())) / 256
	} else {
		cfg.Vigilance = 0.05 + float64(b.next())/512
	}
	return cfg
}

// copyDir copies the regular files of src into a new directory: the image a
// crash would leave of a live data directory (every append is one write(2),
// so the files already hold every acknowledged record).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// FuzzConfigRoundTrip: every Config that NewModel accepts is one the files
// carry. A durable model is built from the fuzzed Config, snapshotted,
// trained, re-capped through Durable.SetCapacity (a WAL capacity record)
// and trained again; then its Config and StateHash must come back from
// three round trips: the WAL (Recover of a crash image, whose
// fresh-directory Config differs and must go unused), Checkpoint →
// LoadSnapshot, and Save → Load (solver state aside: the Save bytes of the
// loaded model repeat, and an SGD model's StateHash, which has no solver
// state, too).
//
// The rest of the input drives a lockstep history: the durable model and a
// twin take the same steps — bursts of pairs that train past the cap, and
// SetCapacity shrinks with and without merge — and at chosen steps the twin
// is rebuilt from the live model's files (Checkpoint → LoadSnapshot, Save →
// Load for SGD, or Recover of a crash image). After every step both must
// hold the same StateHash and answer PredictMean, Regression and
// PredictValue on fixed probes with the same bits.
func FuzzConfigRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 0, 0, 0, 0, 40, 20, 20, 0, 0, 0, 0, 0})                        // uncapped RLS, derived windows
	f.Add([]byte{2 | 4, 1, 20, 8, 30, 24, 0, 0, 40, 60, 60, 9, 12, 0, 3})                   // capped win decay + merge, re-capped lower
	f.Add([]byte{1 | 2 | 8, 2, 3, 20, 10, 12, 1, 9, 80, 90, 30, 5, 18, 1, 9})               // SGD, recency, a half-life Recency drops
	f.Add([]byte{2 | 16, 0, 2, 40, 12, 30, 0, 200, 128, 100, 100, 7, 0, 0, 200, 1})         // ResolutionA, negative half-life, uncapped by the re-cap
	f.Add([]byte{2, 1, 1, 0, 30, 16, 0, 0, 20, 200, 10, 3, 0, 0, 0, 0, 0})                  // a large γ: converges
	f.Add([]byte{4 | 8 | 16, 0, 47, 120, 63, 5, 1, 255, 255, 255, 255, 255, 47, 1, 127, 1}) // the byte ranges' far ends
	// Capped SGD at cap 30, a Checkpoint twin taken while evicted slots
	// stand between spawns, then bursts past the cap, a merging shrink, a
	// Save twin, a burst, a crash-image twin and a last burst.
	f.Add([]byte{8, 1, 40, 255, 63, 30, 0, 0, 0, 100, 50, 5, 30, 0, 0, 0,
		0, 40, 7, 3, 0, 0, 60, 9, 0, 60, 11, 2, 20, 0, 0, 0, 60, 13, 11, 0, 30, 17, 4, 0, 50, 19})
	f.Fuzz(func(t *testing.T, in []byte) {
		b := fuzzBytes(in)
		cfg := fuzzConfig(&b)
		n1, n2, seed := int(b.next())*2, int(b.next())*2, int64(b.next())
		recap, policy, merge := int(b.next()%48), fuzzEviction(&b), b.next()&1 != 0

		opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 1 << 30}
		dir := t.TempDir()
		d, err := Recover(dir, cfg, opts)
		if err != nil {
			t.Fatalf("Recover refused %+v: %v", cfg, err)
		}
		defer d.Close()
		if err := d.Snapshot(); err != nil { // the snapshot, not cfg, carries the configuration
			t.Fatal(err)
		}
		pairs := planeStream(n1+n2, cfg.Dim, 0.3, []float64{0.5, -0.2, 1.1}[:cfg.Dim], 1.0, seed)
		if _, err := d.TrainBatch(pairs[:n1]); err != nil {
			t.Fatal(err)
		}
		if err := d.SetCapacity(recap, policy, merge); err != nil {
			t.Fatal(err)
		}
		if _, err := d.TrainBatch(pairs[n1:]); err != nil {
			t.Fatal(err)
		}
		m := d.Model()
		want, wantHash := m.Config(), mustStateHash(t, m)
		check := func(trip string, got *Model, hash bool) {
			t.Helper()
			if c := got.Config(); c != want {
				t.Fatalf("%s: Config %+v, want %+v", trip, c, want)
			}
			if hash && mustStateHash(t, got) != wantHash {
				t.Fatalf("%s: StateHash changed", trip)
			}
		}

		r, err := Recover(copyDir(t, dir), DefaultConfig(cfg.Dim), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		check("WAL replay", r.Model(), true)

		snap, err := LoadSnapshot(bytes.NewReader(checkpointBytes(t, m)))
		if err != nil {
			t.Fatal(err)
		}
		check("Checkpoint→LoadSnapshot", snap, true)

		saved := saveBytes(t, m)
		loaded, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		check("Save→Load", loaded, cfg.CoefficientSolver == SolverSGD)
		if !bytes.Equal(saveBytes(t, loaded), saved) {
			t.Fatal("Save→Load→Save changed the model file")
		}

		tw := fuzzTwin{m: snap}
		defer tw.close()
		probes := planeStream(6, cfg.Dim, 0, make([]float64, cfg.Dim), 0, 99)
		for step := 0; step < 16 && len(b) > 0; step++ {
			var stage string
			switch op := b.next(); op % 5 {
			case 0, 1: // a burst of pairs, past the cap when there is one
				burst := planeStream(8+int(b.next()%64), cfg.Dim, 0.3, []float64{0.5, -0.2, 1.1}[:cfg.Dim], 1.0, int64(b.next())+int64(1000*step))
				if _, err := d.TrainBatch(burst); err != nil {
					t.Fatal(err)
				}
				tw.train(t, burst)
				stage = fmt.Sprintf("burst of %d", len(burst))
			case 2: // a runtime capacity change, with or without merge
				max, policy, merge := int(b.next()%48), fuzzEviction(&b), op&8 != 0
				if err := d.SetCapacity(max, policy, merge); err != nil {
					t.Fatal(err)
				}
				tw.setCapacity(t, max, policy, merge)
				stage = fmt.Sprintf("SetCapacity(%d, %+v, %v)", max, policy, merge)
			case 3: // a twin from the live model's file
				tw.close()
				var err error
				tw = fuzzTwin{}
				if stage = "Checkpoint→LoadSnapshot"; op&8 != 0 && cfg.CoefficientSolver == SolverSGD {
					stage = "Save→Load"
					tw.m, err = Load(bytes.NewReader(saveBytes(t, m)))
				} else {
					tw.m, err = LoadSnapshot(bytes.NewReader(checkpointBytes(t, m)))
				}
				if err != nil {
					t.Fatal(err)
				}
			case 4: // a twin recovered from a crash image of the live directory
				tw.close()
				r, err := Recover(copyDir(t, dir), DefaultConfig(cfg.Dim), opts)
				if err != nil {
					t.Fatal(err)
				}
				tw = fuzzTwin{m: r.Model(), d: r}
				stage = "crash-image Recover"
			}
			sameModels(t, fmt.Sprintf("step %d, %s", step, stage), m, tw.m, probes)
		}
	})
}

// fuzzTwin is the lockstep history's second model: a loaded one, trained
// directly, or a recovered one, trained through its own data directory.
type fuzzTwin struct {
	m *Model
	d *Durable
}

func (w *fuzzTwin) train(t *testing.T, pairs []TrainingPair) {
	t.Helper()
	var err error
	if w.d != nil {
		_, err = w.d.TrainBatch(pairs)
	} else {
		_, err = w.m.TrainBatch(pairs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func (w *fuzzTwin) setCapacity(t *testing.T, max int, policy Eviction, merge bool) {
	t.Helper()
	var err error
	if w.d != nil {
		err = w.d.SetCapacity(max, policy, merge)
	} else {
		err = w.m.SetCapacity(max, policy, merge)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func (w *fuzzTwin) close() {
	if w.d != nil {
		w.d.Close()
	}
}

// sameModels requires the live model and its twin to hold the same state
// and to answer every probe with the same bits, read through a View each.
func sameModels(t *testing.T, stage string, live, twin *Model, probes []TrainingPair) {
	t.Helper()
	if mustStateHash(t, live) != mustStateHash(t, twin) {
		t.Fatalf("%s: StateHash differs", stage)
	}
	lv, tv := live.View(), twin.View()
	for i, p := range probes {
		q := p.Query
		a, errA := lv.PredictMean(q)
		b, errB := tv.PredictMean(q)
		if (errA == nil) != (errB == nil) || math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: probe %d: PredictMean %v (%v), twin %v (%v)", stage, i, a, errA, b, errB)
		}
		ra, errA := lv.Regression(q)
		rb, errB := tv.Regression(q)
		if (errA == nil) != (errB == nil) || fmt.Sprintf("%x", ra) != fmt.Sprintf("%x", rb) {
			t.Fatalf("%s: probe %d: Regression\n%v (%v)\ntwin\n%v (%v)", stage, i, ra, errA, rb, errB)
		}
		a, errA = lv.PredictValue(q, q.Center)
		b, errB = tv.PredictValue(q, q.Center)
		if (errA == nil) != (errB == nil) || math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: probe %d: PredictValue %v (%v), twin %v (%v)", stage, i, a, errA, b, errB)
		}
	}
}

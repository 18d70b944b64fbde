package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refVersion is a full deep copy of one published model version, taken from
// the writer's rows (as LLM values) — the reference the chunked copy-on-write
// publication is compared against: a published snapshot must reproduce these
// values bit for bit, at the moment of publication and forever after.
type refVersion struct {
	k     int
	steps int
	rows  [][]float64 // [x_k..., θ_k]
	coefs [][]float64 // [y_k, b_Xk..., b_Θk]
	wins  []int
}

func captureRef(m *Model) refVersion {
	ref := refVersion{k: m.store.k, steps: m.steps}
	for _, e := range writerSlots(m) {
		ref.rows = append(ref.rows, e.row)
		ref.coefs = append(ref.coefs, e.coef)
		ref.wins = append(ref.wins, e.wins)
	}
	return ref
}

// checkSnapshotAgainstRef asserts the snapshot behind v is bit-identical to
// the full-copy reference captured when it was published.
func checkSnapshotAgainstRef(t *testing.T, v View, ref refVersion, stage string) {
	t.Helper()
	s := v.s
	if s.k != ref.k || s.steps != ref.steps {
		t.Fatalf("%s: snapshot K=%d steps=%d, reference K=%d steps=%d", stage, s.k, s.steps, ref.k, ref.steps)
	}
	for i := 0; i < ref.k; i++ {
		row, coef := s.row(i), s.coefRow(i)
		for j, want := range ref.rows[i] {
			if row[j] != want {
				t.Fatalf("%s: row %d[%d] = %v, reference %v", stage, i, j, row[j], want)
			}
		}
		for j, want := range ref.coefs[i] {
			if coef[j] != want {
				t.Fatalf("%s: coef %d[%d] = %v, reference %v", stage, i, j, coef[j], want)
			}
		}
		if s.win(i) != ref.wins[i] {
			t.Fatalf("%s: wins %d = %d, reference %d", stage, i, s.win(i), ref.wins[i])
		}
	}
}

// TestChunkedPublicationMatchesFullCopy is the copy-on-write exactness
// property test: a random interleaving of Observe, TrainBatch, View and Save
// must (a) publish snapshots bit-identical to a full copy of the
// authoritative training state, and (b) never mutate an already-published
// version — every pinned View is re-verified against its recorded full copy
// after all subsequent training, which fails if a writer ever writes into a
// chunk a published snapshot shares. Save is checked by decoding its row
// frames (raw IEEE-754 bits) against the same reference.
func TestChunkedPublicationMatchesFullCopy(t *testing.T) {
	for _, dim := range []int{1, 2, 5} {
		rng := rand.New(rand.NewSource(int64(1000 + dim)))
		cfg := DefaultConfig(dim)
		// Tight spacing: enough spawns to cross chunk boundaries even in the
		// small-volume d=1 query space.
		cfg.Vigilance = 0.02
		if dim == 1 {
			cfg.Vigilance = 0.004
		}
		cfg.Gamma = 1e-12
		cfg.MinGammaSteps = 1 << 30
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type pinned struct {
			v     View
			ref   refVersion
			stage string
		}
		var pins []pinned
		gen := uniformGen(dim)
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // Observe: per-pair publication
				if _, err := m.Observe(gen(rng), rng.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			case 5: // Observe a near-duplicate of an existing prototype: a
				// guaranteed in-place winner update in an already-published chunk
				if k := m.K(); k > 0 {
					q := m.View().s.proto(rng.Intn(k)).query()
					if _, err := m.Observe(q, rng.NormFloat64()); err != nil {
						t.Fatal(err)
					}
				}
			case 6, 7: // TrainBatch: one publication for many touched rows
				pairs := make([]TrainingPair, 1+rng.Intn(60))
				for i := range pairs {
					pairs[i] = TrainingPair{Query: gen(rng), Answer: rng.NormFloat64()}
				}
				if _, err := m.TrainBatch(pairs); err != nil {
					t.Fatal(err)
				}
			case 8: // pin the current version with its reference copy
				pins = append(pins, pinned{m.View(), captureRef(m), fmt.Sprintf("dim=%d op=%d", dim, op)})
			case 9: // Save the live model; its row frames must match the reference
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				ref := captureRef(m)
				frames := splitFrames(t, buf.Bytes())
				head, rows := frames[0], frames[1:]
				steps := int(binary.LittleEndian.Uint64(head[len(checkpointMagic)+2+8*3:]))
				if len(rows) != ref.k || steps != ref.steps {
					t.Fatalf("dim=%d op=%d: Save K=%d steps=%d, reference K=%d steps=%d",
						dim, op, len(rows), steps, ref.k, ref.steps)
				}
				if head[len(checkpointMagic)+1]&flagNoSolverState == 0 {
					t.Fatalf("dim=%d op=%d: Save's header does not say the rows carry no solver state", dim, op)
				}
				vals := make([]float64, 2*dim+3)
				for i, p := range rows {
					decodeFloats(vals, p)
					got, coef := vals[:dim+1], vals[dim+1:]
					for j, want := range ref.rows[i] {
						if math.Float64bits(got[j]) != math.Float64bits(want) {
							t.Fatalf("dim=%d op=%d: Save row %d[%d] = %v, reference %v", dim, op, i, j, got[j], want)
						}
					}
					for j, want := range ref.coefs[i] {
						if math.Float64bits(coef[j]) != math.Float64bits(want) {
							t.Fatalf("dim=%d op=%d: Save coef %d[%d] = %v, reference %v", dim, op, i, j, coef[j], want)
						}
					}
					if wins := int(binary.LittleEndian.Uint64(p[8*(2*dim+3):])); wins != ref.wins[i] {
						t.Fatalf("dim=%d op=%d: Save wins %d = %d, reference %d", dim, op, i, wins, ref.wins[i])
					}
				}
			}
			// The latest published version always matches the live state.
			checkSnapshotAgainstRef(t, m.View(), captureRef(m), fmt.Sprintf("dim=%d op=%d live", dim, op))
		}
		if m.K() < chunkRows {
			t.Fatalf("dim=%d: workload stayed at K=%d — never crossed a chunk boundary", dim, m.K())
		}
		// The heart of the property: every historical version is untouched by
		// everything that trained after it.
		for _, p := range pins {
			checkSnapshotAgainstRef(t, p.v, p.ref, p.stage+" (re-check after training)")
		}
	}
}

// FuzzChunkBoundaryTransitions drives spawn/update/rebuild sequences around
// chunk boundaries from fuzz input: each byte selects an operation, with the
// model pre-grown to just below the first boundary so appends, copy-on-write
// updates and epoch rebuilds all straddle chunk edges. The invariants are
// the same as the property test's: the live snapshot matches a full copy of
// the training state, and a version pinned mid-sequence survives later
// training bit for bit. The model is one-dimensional, so its epochs are
// grids, each merged from the last. CI's -race run executes the corpus
// seeds, and its fuzz step runs the target.
func FuzzChunkBoundaryTransitions(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 17, 99, 200, 5, 5, 5, 128})
	f.Add(bytes.Repeat([]byte{0}, 80))          // all spawns: straight through the boundary
	f.Add(bytes.Repeat([]byte{201, 3}, 40))     // spawn/update interleave
	f.Add([]byte{255, 255, 0, 0, 0, 64, 32, 9}) // batch-heavy
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		const dim = 1
		cfg := DefaultConfig(dim)
		cfg.Vigilance = 1e-6 // any distinct query spawns
		cfg.Gamma = 1e-12
		cfg.MinGammaSteps = 1 << 30
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		// Park K just under the first chunk boundary; every few ops then
		// cross, fill, or rewrite the boundary chunk.
		warm := make([]TrainingPair, chunkRows-4)
		for i := range warm {
			warm[i] = TrainingPair{Query: randQuery(rng, dim), Answer: rng.NormFloat64()}
		}
		if _, err := m.TrainBatch(warm); err != nil {
			t.Fatal(err)
		}
		pinnedView := m.View()
		pinnedRef := captureRef(m)
		for i, b := range ops {
			switch {
			case b < 200: // spawn: a fresh random query is (a.s.) > ρ from everything
				if _, err := m.Observe(randQuery(rng, dim), float64(b)); err != nil {
					t.Fatal(err)
				}
			case b < 250: // in-place update of an existing row (COW path)
				k := int(b) % m.K()
				q := m.View().s.proto(k).query()
				if _, err := m.Observe(q, float64(b)-225); err != nil {
					t.Fatal(err)
				}
			default: // batch: many rows touched, one publication
				pairs := make([]TrainingPair, 8)
				for j := range pairs {
					pairs[j] = TrainingPair{Query: randQuery(rng, dim), Answer: float64(j)}
				}
				if _, err := m.TrainBatch(pairs); err != nil {
					t.Fatal(err)
				}
			}
			if i%16 == 0 {
				checkSnapshotAgainstRef(t, m.View(), captureRef(m), fmt.Sprintf("fuzz op %d live", i))
			}
		}
		checkSnapshotAgainstRef(t, m.View(), captureRef(m), "fuzz final live")
		checkSnapshotAgainstRef(t, pinnedView, pinnedRef, "fuzz pinned pre-boundary version")
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"llmq/internal/wal"
)

// checkpointShapes builds the models the binary-checkpoint tests share: for
// one dimensionality and solver, an unbounded model, a bounded one that has
// been through eviction bursts while it trained, and one re-capped at
// runtime with SetCapacity.
func checkpointShapes(t testing.TB, dim int, solver Solver) map[string]*Model {
	t.Helper()
	bx := make([]float64, dim)
	for i := range bx {
		bx[i] = 0.5 - 0.3*float64(i)
	}
	pairs := planeStream(1500, dim, 0.3, bx, 1.0, int64(100*dim)+int64(solver))
	build := func(max int) *Model {
		cfg := DefaultConfig(dim)
		cfg.Vigilance = 0.04 * (math.Sqrt(float64(dim)) + 1)
		cfg.Gamma = 1e-12
		cfg.MinGammaSteps = 1 << 30
		cfg.CoefficientSolver = solver
		cfg.MaxPrototypes = max
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			t.Fatal(err)
		}
		return m
	}
	unbounded := build(0)
	k := unbounded.K()
	if k < 8 {
		t.Fatalf("d=%d fixture grew only %d prototypes", dim, k)
	}
	bounded := build(k / 2)
	if bounded.K() == k {
		t.Fatalf("d=%d bounded fixture never evicted", dim)
	}
	recapped := build(0)
	if err := recapped.SetCapacity(k/3, Eviction{Recency: true}, false); err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{"unbounded": unbounded, "bounded": bounded, "setcapacity": recapped}
}

func stateHash(t testing.TB, m *Model) string {
	t.Helper()
	h, err := m.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCheckpointRoundTripTable: a binary checkpoint reloads to the same
// canonical state, and the reloaded model stays identical to the original
// — same hash, same Q1 and Q2 answers — under 2 000 further pairs.
func TestCheckpointRoundTripTable(t *testing.T) {
	for _, dim := range []int{1, 2, 8} {
		for _, solver := range []Solver{SolverRLS, SolverSGD} {
			for name, m := range checkpointShapes(t, dim, solver) {
				t.Run(fmt.Sprintf("d=%d/%s/%s", dim, solver, name), func(t *testing.T) {
					cp := checkpointBytes(t, m)
					loaded, err := Load(bytes.NewReader(cp))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := stateHash(t, loaded), stateHash(t, m); got != want {
						t.Fatalf("StateHash(Load(Checkpoint(m))) = %s, want %s", got, want)
					}
					if canonicalState(t, loaded) != canonicalState(t, m) {
						t.Fatal("reloaded writer state differs from the original")
					}
					bx := make([]float64, dim)
					more := planeStream(2000, dim, -0.2, bx, 0.4, 7)
					for _, mm := range []*Model{m, loaded} {
						if _, err := mm.TrainBatch(more); err != nil {
							t.Fatal(err)
						}
					}
					if got, want := stateHash(t, loaded), stateHash(t, m); got != want {
						t.Fatalf("hashes diverged after identical continuation: %s vs %s", got, want)
					}
					// Answers accumulate per-prototype terms in slot order, and
					// a reload keeps that order in every shape: slot order is
					// birth order.
					for _, p := range planeStream(50, dim, 0, bx, 0, 9) {
						a, err1 := m.PredictMean(p.Query)
						b, err2 := loaded.PredictMean(p.Query)
						if err1 != nil || err2 != nil || math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("PredictMean differs: %v vs %v (%v, %v)", a, b, err1, err2)
						}
						ra, err1 := m.Regression(p.Query)
						rb, err2 := loaded.Regression(p.Query)
						if err1 != nil || err2 != nil || len(ra) != len(rb) {
							t.Fatalf("Regression differs: %d vs %d models (%v, %v)", len(ra), len(rb), err1, err2)
						}
						if fmt.Sprintf("%x", ra) != fmt.Sprintf("%x", rb) {
							t.Fatalf("Regression differs:\n%v\n%v", ra, rb)
						}
					}
				})
			}
		}
	}
}

// splitFrames returns a copy of every frame payload of a checkpoint.
func splitFrames(t testing.TB, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		p, rest, err := wal.ReadFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), p...))
		b = rest
	}
	return out
}

// joinFrames re-frames payloads with fresh lengths and checksums, so a test
// can corrupt a field and still present a CRC-clean file.
func joinFrames(payloads [][]byte) []byte {
	var b []byte
	for _, p := range payloads {
		start := len(b)
		b = append(wal.OpenFrame(b), p...)
		wal.SealFrame(b, start)
	}
	return b
}

// saveBytes is the model file Save writes.
func saveBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadCheckpointRejects corrupts a real checkpoint (or, where the case
// says so, a real Save file) one field at a time. Every case must fail with
// ErrBadModelFile and say where.
func TestLoadCheckpointRejects(t *testing.T) {
	m := checkpointShapes(t, 2, SolverRLS)["bounded"]
	cp, saved := checkpointBytes(t, m), saveBytes(t, m)
	const d = 2
	flagsAt := len(checkpointMagic) + 1
	// Header payload offsets: the twelve uint64 fields follow magic+version+flags.
	field := func(i int) int { return len(checkpointMagic) + 2 + 8*i }
	// Row payload offsets.
	const (
		rowTheta   = 8 * d
		rowCoef    = 8 * (d + 1)
		rowWins    = 8 * (2*d + 3)
		rowLastWin = rowWins + 8
		rowFlag    = rowWins + 16
		rowRLS     = rowFlag + 1
	)
	putF := func(p []byte, off int, v float64) { binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v)) }
	putU := func(p []byte, off int, v uint64) { binary.LittleEndian.PutUint64(p[off:], v) }
	header := func(mut func(h []byte)) func([][]byte) [][]byte {
		return func(f [][]byte) [][]byte { mut(f[0]); return f }
	}
	row := func(mut func(r []byte)) func([][]byte) [][]byte {
		return func(f [][]byte) [][]byte { mut(f[3]); return f }
	}
	cases := []struct {
		name, want string
		from       []byte                         // the file to corrupt; nil: cp
		mutate     func(frames [][]byte) [][]byte // nil: raw is used instead
		raw        func(b []byte) []byte
	}{
		{name: "bad magic", want: "not a frame-format model file", raw: func(b []byte) []byte { b[wal.FrameHeaderLen] ^= 0xff; return b }},
		{name: "JSON v2 document", want: "not a frame-format model file", raw: func([]byte) []byte {
			return []byte(`{"version":2,"dim":1,"vigilance":0.1,"gamma":0.01,"steps":1,"llms":[]}`)
		}},
		{name: "unsupported version", want: "header frame", mutate: header(func(h []byte) { h[len(checkpointMagic)]++ })},
		{name: "unknown flag bit", want: "header frame", mutate: header(func(h []byte) { h[len(checkpointMagic)+1] |= 0x80 })},
		{name: "short header", want: "header frame", mutate: func(f [][]byte) [][]byte { f[0] = f[0][:20]; return f }},
		{name: "header CRC", want: "header frame: checksum mismatch", raw: func(b []byte) []byte { b[wal.FrameHeaderLen+30] ^= 1; return b }},
		{name: "row CRC", want: "row frame", raw: func(b []byte) []byte { b[len(b)-5] ^= 1; return b }},
		{name: "zero dim", want: "dim/vigilance/gamma", mutate: header(func(h []byte) { putU(h, field(0), 0) })},
		{name: "huge dim", want: "dim/vigilance/gamma", mutate: header(func(h []byte) { putU(h, field(0), 1<<40) })},
		{name: "negative vigilance", want: "dim/vigilance/gamma", mutate: header(func(h []byte) { putF(h, field(1), -1) })},
		{name: "NaN vigilance", want: "dim/vigilance/gamma", mutate: header(func(h []byte) { putF(h, field(1), math.NaN()) })},
		{name: "zero gamma", want: "dim/vigilance/gamma", mutate: header(func(h []byte) { putF(h, field(2), 0) })},
		{name: "negative steps", want: "step counters", mutate: header(func(h []byte) { putU(h, field(3), 1<<63) })},
		{name: "negative quiet steps", want: "step counters", mutate: header(func(h []byte) { putU(h, field(4), math.MaxUint64) })},
		{name: "unknown eviction policy", want: "eviction policy", mutate: header(func(h []byte) { h[len(h)-1] = 'X' })},
		{name: "forged row count", want: "header frame claims", mutate: header(func(h []byte) { putU(h, field(10), 1<<50) })},
		{name: "row count off by one", want: "header frame claims", mutate: header(func(h []byte) { putU(h, field(10), uint64(m.K()+1)) })},
		{name: "wrong row width", want: "header frame claims", mutate: header(func(h []byte) { putU(h, field(11), 8) })},
		{name: "trailing bytes", want: "header frame claims", raw: func(b []byte) []byte { return append(b, 0) }},
		{name: "trailing frame", want: "header frame claims", mutate: func(f [][]byte) [][]byte { return append(f, f[1]) }},
		{name: "missing row", want: "header frame claims", mutate: func(f [][]byte) [][]byte { return f[:len(f)-1] }},
		{name: "truncated", want: "header frame claims", raw: func(b []byte) []byte { return b[:len(b)-9] }},
		{name: "forged frame length", want: "row frame 1", raw: func(b []byte) []byte {
			stride := (len(b) - wal.FrameHeaderLen - len(splitFrames(t, b)[0])) / m.K()
			binary.LittleEndian.PutUint32(b[len(b)-(m.K()-1)*stride:], 1<<31)
			return b
		}},
		{name: "negative radius", want: "LLM 2 has negative radius", mutate: row(func(r []byte) { putF(r, rowTheta, -0.5) })},
		{name: "non-finite centre", want: "LLM 2 contains non-finite", mutate: row(func(r []byte) { putF(r, 0, math.Inf(1)) })},
		{name: "non-finite coefficient", want: "LLM 2 contains non-finite", mutate: row(func(r []byte) { putF(r, rowCoef+8, math.NaN()) })},
		{name: "negative wins", want: "LLM 2 has win count", mutate: row(func(r []byte) { putU(r, rowWins, 1<<63) })},
		{name: "last-win past steps", want: "LLM 2 has win count", mutate: row(func(r []byte) { putU(r, rowLastWin, uint64(m.Steps()+1)) })},
		{name: "bad RLS-present byte", want: "LLM 2 has a bad RLS-present byte", mutate: row(func(r []byte) { r[rowFlag] = 2 })},
		{name: "non-finite RLS", want: "LLM 2 RLS state contains non-finite", mutate: row(func(r []byte) { putF(r, rowRLS+16, math.Inf(-1)) })},
		{name: "RLS-present byte under the no-solver-state flag", from: saved, want: "LLM 2 has a bad RLS-present byte 1",
			mutate: row(func(r []byte) { r[rowFlag] = 1 })},
		{name: "RLS-width rows under the no-solver-state flag", want: "header frame claims",
			mutate: header(func(h []byte) { h[flagsAt] |= flagNoSolverState })},
		{name: "no-solver-state rows without the flag", from: saved, want: "header frame claims",
			mutate: header(func(h []byte) { h[flagsAt] &^= flagNoSolverState })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), cp...)
			if tc.from != nil {
				b = append([]byte(nil), tc.from...)
			}
			if tc.mutate != nil {
				b = joinFrames(tc.mutate(splitFrames(t, b)))
			} else {
				b = tc.raw(b)
			}
			_, err := Load(bytes.NewReader(b))
			if !errors.Is(err, ErrBadModelFile) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrBadModelFile mentioning %q", err, tc.want)
			}
		})
	}

	t.Run("over-cap K is evicted before first publish", func(t *testing.T) {
		f := splitFrames(t, cp)
		putU(f[0], field(8), uint64(m.K()/2)) // halve the cap under the same rows
		loaded, err := Load(bytes.NewReader(joinFrames(f)))
		if err != nil {
			t.Fatal(err)
		}
		if loaded.K() > m.K()/2 {
			t.Fatalf("loaded K=%d over the file's cap %d", loaded.K(), m.K()/2)
		}
	})
	t.Run("SGD file carries no solver state", func(t *testing.T) {
		sgd := checkpointBytes(t, checkpointShapes(t, 2, SolverSGD)["unbounded"])
		f := splitFrames(t, sgd)
		f[1][len(f[1])-1] = 1
		if _, err := Load(bytes.NewReader(joinFrames(f))); !errors.Is(err, ErrBadModelFile) {
			t.Fatalf("RLS-present byte in an SGD checkpoint: err = %v", err)
		}
	})
}

// TestRecoverRefusesSaveSnapshot plants a Save file as the newest snapshot
// of a data directory. Under the RLS solver it carries no solver state, so
// no WAL tail replays onto it bit-identically: Recover must log it as
// unreadable and fall back a generation. Under SGD there is no solver state
// to miss, and a Save taken at the boundary recovers like the checkpoint it
// replaces. Either way the recovered model equals one that never stopped.
func TestRecoverRefusesSaveSnapshot(t *testing.T) {
	for _, solver := range []Solver{SolverRLS, SolverSGD} {
		t.Run(solver.String(), func(t *testing.T) {
			cfg := durableConfig()
			cfg.CoefficientSolver = solver
			pairs := planeStream(450, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 17)
			ref, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.TrainBatch(pairs); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var logs []string
			opts := DurableOptions{SnapshotEvery: 200, WAL: wal.Options{Mode: wal.SyncNone},
				Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }}
			d, err := Recover(dir, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			var saved []byte
			for lo := 0; lo < len(pairs); lo += 50 {
				if _, err := d.TrainBatch(pairs[lo : lo+50]); err != nil {
					t.Fatal(err)
				}
				if d.Tail().Gen == 2 && saved == nil {
					saved = saveBytes(t, d.Model()) // the state snapshot 2 holds
				}
			}
			// Crash: the log closes without Close's rotation, leaving 50 pairs
			// in segment 2 on top of snapshot 2, which the Save file replaces.
			if err := d.log.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wal.SnapshotPath(dir, 2), saved, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(dir, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got, want := stateHash(t, r.Model()), stateHash(t, ref); got != want {
				t.Fatalf("recovered state %s, never-stopped reference %s", got, want)
			}
			refused := strings.Contains(strings.Join(logs, "\n"), "snap-000002.bin unreadable")
			if refused != (solver == SolverRLS) {
				t.Fatalf("snapshot 2 refused=%v under %s; recovery logged:\n%s", refused, solver, strings.Join(logs, "\n"))
			}
		})
	}
}

// FuzzLoadSnapshot feeds Load arbitrary bytes, seeded with real model files
// of every shape the format has — Checkpoint and Save output. Any input
// either fails cleanly or loads to a model whose own Checkpoint reloads to
// the same StateHash; nothing panics, and nothing is sized by a number the
// input merely claims. The seeds are d=1 models of a dozen prototypes: the
// engine minimizes every interesting input, and spends its whole budget
// there on a 100 KB one.
func FuzzLoadSnapshot(f *testing.F) {
	for _, solver := range []Solver{SolverRLS, SolverSGD} {
		for _, m := range checkpointShapes(f, 1, solver) {
			f.Add(checkpointBytes(f, m))
			f.Add(saveBytes(f, m))
		}
	}
	// Γ = +Inf: the step after a spawn.
	fresh, err := NewModel(DefaultConfig(1))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := fresh.Observe(Query{Center: []float64{0.5}, Theta: 0.1}, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(checkpointBytes(f, fresh))
	// Converged, with the quiet window counting.
	conv, err := NewModel(DefaultConfig(2))
	if err != nil {
		f.Fatal(err)
	}
	if res, err := conv.TrainBatch(planeStream(8000, 2, 0.3, []float64{0.5, -0.2}, 1.0, 3)); err != nil || !res.Converged {
		f.Fatalf("converged seed: %+v, %v", res, err)
	}
	f.Add(checkpointBytes(f, conv))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Load(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrBadModelFile) && !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Load failed outside its error contract: %v", err)
			}
			return
		}
		var cp bytes.Buffer
		if err := m.Checkpoint(&cp); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&cp)
		if err != nil {
			t.Fatalf("a loaded model's own checkpoint does not load: %v", err)
		}
		if stateHash(t, again) != stateHash(t, m) {
			t.Fatal("Checkpoint→Load changed the StateHash of a loaded model")
		}
	})
}

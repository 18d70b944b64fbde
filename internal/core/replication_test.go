package core

import (
	"bytes"
	"errors"
	"testing"

	"llmq/internal/wal"
)

// TestStateHashCanonical: the hash must be invariant under slot
// renumbering (a Checkpoint→Load round trip compacts tombstones and
// permutes slots) and must change when the state changes.
func TestStateHashCanonical(t *testing.T) {
	m, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs := planeStream(2000, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 43)
	if _, err := m.TrainBatch(pairs[:1500]); err != nil {
		t.Fatal(err)
	}
	h1 := mustStateHash(t, m)
	if h1 != mustStateHash(t, m) {
		t.Fatal("StateHash is not deterministic")
	}
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustStateHash(t, loaded); got != h1 {
		t.Fatalf("Checkpoint→Load changed the hash: %s vs %s", got, h1)
	}
	if _, err := m.TrainBatch(pairs[1500:]); err != nil {
		t.Fatal(err)
	}
	if mustStateHash(t, m) == h1 {
		t.Fatal("training did not change the hash")
	}
	// Hashing must not perturb the model: the loaded copy fed the same
	// continuation stays identical.
	if _, err := loaded.TrainBatch(pairs[1500:]); err != nil {
		t.Fatal(err)
	}
	if mustStateHash(t, loaded) != mustStateHash(t, m) {
		t.Fatal("hashed models diverged on identical continuation pairs")
	}
}

// TestDurableSetCapacityReplay is the WAL-logged re-cap contract: a runtime
// SetCapacity through the Durable must replay at exactly its point in the
// training order, so recovery — with or without an intervening checkpoint —
// matches a reference run that made the same call at the same step.
func TestDurableSetCapacityReplay(t *testing.T) {
	pairs := planeStream(900, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 47)
	cfg := durableConfig()
	cfg.MaxPrototypes = 0 // start unbounded; the runtime call installs the cap
	cfg.Eviction = Eviction{}

	run := func(t *testing.T, snapEvery int) {
		dir := t.TempDir()
		opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: snapEvery}
		d, err := Recover(dir, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.TrainBatch(pairs[:400]); err != nil {
			t.Fatal(err)
		}
		if err := d.SetCapacity(12, Eviction{HalfLife: 64}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := d.TrainBatch(pairs[400:]); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		want := mustStateHash(t, d.Model())
		// Abandon d without Close — the crash. Recovery must land on the
		// same state, which requires the capacity record to replay.
		d2, err := Recover(dir, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if got := mustStateHash(t, d2.Model()); got != want {
			t.Fatalf("recovered StateHash %s, want %s", got, want)
		}
		if got := d2.Model().Config().MaxPrototypes; got != 12 {
			t.Fatalf("recovered capacity %d, want 12", got)
		}
		// And the whole run equals a plain model making the same call at the
		// same step.
		ref, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.TrainBatch(pairs[:400]); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetCapacity(12, Eviction{HalfLife: 64}, true); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.TrainBatch(pairs[400:]); err != nil {
			t.Fatal(err)
		}
		if got := mustStateHash(t, ref); got != want {
			t.Fatalf("reference StateHash %s, want %s", got, want)
		}
	}

	// Replay-only (no rotation ever fires) and across-checkpoint variants.
	t.Run("replay", func(t *testing.T) { run(t, 1<<30) })
	t.Run("checkpointed", func(t *testing.T) { run(t, 250) })
}

// TestReplayCapacityRecordKeepsUnnamedPolicy: a capacity record that names
// no policy — what Durable.SetCapacity logged for "keep the current policy"
// before records carried the policy — replays with the model's current
// policy and half-life.
func TestReplayCapacityRecordKeepsUnnamedPolicy(t *testing.T) {
	m, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := NewReplayApplier(m)
	if err := a.Apply(wal.Record{Kind: wal.KindCapacity, MaxPrototypes: 12, Merge: true}); err != nil {
		t.Fatal(err)
	}
	if c := m.Config(); c.MaxPrototypes != 12 || c.Eviction != (Eviction{HalfLife: 64}) || !c.MergeOnEvict {
		t.Fatalf("replayed capacity %d %+v merge=%v, want 12 {HalfLife:64} merge=true", c.MaxPrototypes, c.Eviction, c.MergeOnEvict)
	}
}

// TestDurableSetCapacityRejectsUnloggableCap: a cap or half-life no WAL
// capacity record can carry — a negative cap, one above wal.MaxCapacity, a
// half-life above wal.MaxHalfLife — is refused before anything is logged,
// while the largest loggable ones replay: recovery reproduces the live
// Config exactly.
func TestDurableSetCapacityRejectsUnloggableCap(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		max    int
		policy Eviction
	}{{-1, Eviction{}}, {wal.MaxCapacity + 1, Eviction{}}, {10, Eviction{HalfLife: wal.MaxHalfLife + 1}}} {
		if err := d.SetCapacity(c.max, c.policy, false); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("SetCapacity(%d, %+v): err = %v, want ErrBadConfig", c.max, c.policy, err)
		}
	}
	if err := d.SetCapacity(wal.MaxCapacity, Eviction{HalfLife: wal.MaxHalfLife}, true); err != nil {
		t.Fatal(err)
	}
	want := d.Model().Config()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Model().Config(); got != want {
		t.Fatalf("recovered config %+v, want %+v", got, want)
	}
}

// TestDurableBoundaryHashes: rotations record a boundary hash a follower
// can compare against, and the recorded history is pruned.
func TestDurableBoundaryHashes(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(600, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 53)
	d, err := Recover(dir, durableConfig(), DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	gen := d.Gen()
	if gen == 0 {
		t.Fatal("no rotation happened")
	}
	bh, ok := d.BoundaryHash(gen)
	if !ok {
		t.Fatalf("no boundary hash for current generation %d", gen)
	}
	if bh.Gen != gen || bh.Steps <= 0 || len(bh.Hash) != 64 {
		t.Fatalf("boundary hash = %+v", bh)
	}
	if _, ok := d.BoundaryHash(gen + 99); ok {
		t.Fatal("hash reported for a generation that never happened")
	}
	if d.BootID() == "" {
		t.Fatal("empty boot id")
	}
	// EnsureSnapshot on an already-snapshotted directory must not rotate.
	g, err := d.EnsureSnapshot()
	if err != nil || g != gen {
		t.Fatalf("EnsureSnapshot = %d, %v; want %d", g, err, gen)
	}
}

// TestResumeContinuesDurably: core.Resume wraps an in-memory model over a
// directory whose bytes it already equals (the promotion path) and training
// continues durably — a subsequent Recover sees the full stream.
func TestResumeContinuesDurably(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(400, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 59)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 1 << 30}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs[:200]); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	m := d.Model()
	// Simulate the follower's hand-off: the log handle is abandoned (the
	// follower never had one) and the model continues over the same bytes.
	r, err := Resume(m, dir, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.BootID() == d.BootID() {
		t.Fatal("Resume reused the boot id")
	}
	if _, err := r.TrainBatch(pairs[200:]); err != nil {
		t.Fatal(err)
	}
	want := mustStateHash(t, r.Model())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Model().Steps() != len(pairs) {
		t.Fatalf("recovered %d steps, want %d", d2.Model().Steps(), len(pairs))
	}
	if got := mustStateHash(t, d2.Model()); got != want {
		t.Fatalf("recovered StateHash %s, want %s", got, want)
	}
}

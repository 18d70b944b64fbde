package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"llmq/internal/wal"
)

// TestStateHashCanonical: the hash must be invariant under slot
// renumbering and a Checkpoint→Load round trip, and must change when the
// state changes.
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
	gen := d.Tail().Gen
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

// mirrorTail ships the primary's log past cur into a following store the
// way a replication follower does — chunks through Mirror, a generation
// bump through Snapshot — until it has consumed everything, and returns the
// cursor it stopped at.
func mirrorTail(t *testing.T, f *Durable, pdir string, cur wal.Cursor) wal.Cursor {
	t.Helper()
	for {
		c, err := wal.TailRead(pdir, cur, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(c.Data) > 0:
			sc := wal.NewScanner(bytes.NewReader(c.Data))
			var recs []wal.Record
			for sc.Next() {
				recs = append(recs, sc.Record())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if err := f.Mirror(c.Data, recs); err != nil {
				t.Fatal(err)
			}
			if got := f.Tail(); got != c.Next {
				t.Fatalf("mirror tail %v after a chunk, want %v", got, c.Next)
			}
		case c.Next.Gen == cur.Gen+1:
			if err := f.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if got := f.Tail(); got != c.Next {
				t.Fatalf("mirror tail %v after a rotation, want %v", got, c.Next)
			}
		default:
			return cur
		}
		cur = c.Next
	}
}

// TestPromotedMirrorContinuesDurably: a store that follows a primary's log
// through Mirror and Snapshot matches the primary bit for bit, closes
// without a checkpoint of its own while it follows, and once promoted takes
// a fresh boot ID, continues durably, and recovers the full stream.
func TestPromotedMirrorContinuesDurably(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pairs := planeStream(600, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 59)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 100}
	p, err := Recover(pdir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.TrainBatch(pairs[:100]); err != nil {
		t.Fatal(err)
	}
	// Bootstrap: the primary's snapshot is the mirror's first file.
	gen := p.Tail().Gen
	snap, err := os.ReadFile(wal.SnapshotPath(pdir, gen))
	if err != nil {
		t.Fatal(err)
	}
	f, err := InstallSnapshot(fdir, nil, gen, bytes.NewReader(snap), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur := wal.Cursor{Gen: gen}
	for i := 100; i < 450; i += 50 {
		if _, err := p.TrainBatch(pairs[i : i+50]); err != nil {
			t.Fatal(err)
		}
		cur = mirrorTail(t, f, pdir, cur)
	}
	if got, want := mustStateHash(t, f.Model()), mustStateHash(t, p.Model()); got != want {
		t.Fatalf("mirror hash %s, primary %s", got, want)
	}
	if f.Tail().Gen != p.Tail().Gen || f.Tail().Gen <= gen {
		t.Fatalf("mirror at generation %d, primary at %d (bootstrapped at %d)", f.Tail().Gen, p.Tail().Gen, gen)
	}
	// A following store's Close writes no generation the primary lacks.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if man, err := wal.List(fdir); err != nil || man.Snapshots[len(man.Snapshots)-1] != p.Tail().Gen {
		t.Fatalf("mirror snapshots after Close = %v (%v), primary at generation %d", man.Snapshots, err, p.Tail().Gen)
	}

	f, err = OpenMirror(fdir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if f.BootID() == p.BootID() {
		t.Fatal("the promoted mirror reused the primary's boot id")
	}
	if _, err := f.TrainBatch(pairs[450:]); err != nil {
		t.Fatal(err)
	}
	want := mustStateHash(t, f.Model())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Recover(fdir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Model().Steps() != len(pairs) {
		t.Fatalf("recovered %d steps, want %d", d.Model().Steps(), len(pairs))
	}
	if got := mustStateHash(t, d.Model()); got != want {
		t.Fatalf("recovered StateHash %s, want %s", got, want)
	}
}

// dirFiles reads every file of dir into a name → content map.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestInstallSnapshotRefusesBadBodies: a shipped body that does not load
// as a snapshot — or that stops mid-transfer — is refused before the old
// mirror is touched. The old store stays open: its directory is byte for
// byte what it was, with no staged file left behind, it keeps mirroring
// the primary's log to the primary's hash, and it can still be promoted.
func TestInstallSnapshotRefusesBadBodies(t *testing.T) {
	cut := errors.New("connection reset by peer")
	for _, tc := range []struct {
		name string
		body func(snap, saved []byte) io.Reader
		want string
	}{
		{"truncated checkpoint", func(snap, _ []byte) io.Reader { return bytes.NewReader(snap[:len(snap)-7]) }, "does not load"},
		{"garbage", func(_, _ []byte) io.Reader { return strings.NewReader("<html>502 Bad Gateway</html>") }, "does not load"},
		{"Save file", func(_, saved []byte) io.Reader { return bytes.NewReader(saved) }, "without the RLS solver state"},
		{"cut short", func(snap, _ []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(snap[:len(snap)/2]), iotest.ErrReader(cut))
		}, cut.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pdir, fdir := t.TempDir(), t.TempDir()
			pairs := planeStream(500, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 61)
			opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 100, Logf: t.Logf}
			p, err := Recover(pdir, durableConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := p.TrainBatch(pairs[:100]); err != nil {
				t.Fatal(err)
			}
			gen := p.Tail().Gen
			snap, err := os.ReadFile(wal.SnapshotPath(pdir, gen))
			if err != nil {
				t.Fatal(err)
			}
			f, err := InstallSnapshot(fdir, nil, gen, bytes.NewReader(snap), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Tail(); got != (wal.Cursor{Gen: gen}) {
				t.Fatalf("installed mirror tail %v, want the start of generation %d", got, gen)
			}
			if _, err := p.TrainBatch(pairs[100:250]); err != nil {
				t.Fatal(err)
			}
			cur := mirrorTail(t, f, pdir, wal.Cursor{Gen: gen})
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, fdir)
			var saved bytes.Buffer
			if err := p.Model().Save(&saved); err != nil {
				t.Fatal(err)
			}
			snap, err = os.ReadFile(wal.SnapshotPath(pdir, p.Tail().Gen))
			if err != nil {
				t.Fatal(err)
			}

			if _, err := InstallSnapshot(fdir, f, p.Tail().Gen, tc.body(snap, saved.Bytes()), opts); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("InstallSnapshot = %v, want a refusal naming %q", err, tc.want)
			}
			if after := dirFiles(t, fdir); !reflect.DeepEqual(after, before) {
				names := make([]string, 0, len(after))
				for name := range after {
					names = append(names, name)
				}
				t.Fatalf("a refused install changed the mirror directory: it holds %v", names)
			}
			if _, err := p.TrainBatch(pairs[250:400]); err != nil {
				t.Fatal(err)
			}
			mirrorTail(t, f, pdir, cur)
			if got, want := mustStateHash(t, f.Model()), mustStateHash(t, p.Model()); got != want {
				t.Fatalf("old mirror hash %s after the refusal, primary %s", got, want)
			}
			if err := f.Promote(); err != nil {
				t.Fatalf("old mirror refused promotion after the refusal: %v", err)
			}
			if _, err := f.TrainBatch(pairs[400:]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInstallSnapshotRetiresTheOldMirror: an installed snapshot replaces
// every generation of the old mirror, also ones newer than its own (a
// follower re-pointed at a primary with a shorter history), and the new
// mirror opens at its start with the primary's state.
func TestInstallSnapshotRetiresTheOldMirror(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	pairs := planeStream(300, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 67)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 50, Logf: t.Logf}
	old, err := Recover(fdir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.TrainBatch(pairs); err != nil { // one rotation per batch
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := old.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Recover(pdir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.TrainBatch(pairs[:100]); err != nil {
		t.Fatal(err)
	}
	if old.Tail().Gen <= p.Tail().Gen {
		t.Fatalf("old mirror at generation %d, primary at %d: want the mirror ahead", old.Tail().Gen, p.Tail().Gen)
	}
	snap, err := os.ReadFile(wal.SnapshotPath(pdir, p.Tail().Gen))
	if err != nil {
		t.Fatal(err)
	}
	f, err := InstallSnapshot(fdir, old, p.Tail().Gen, bytes.NewReader(snap), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seg := filepath.Base(wal.SegmentPath(fdir, p.Tail().Gen))
	if files := dirFiles(t, fdir); len(files) != 2 || files[filepath.Base(wal.SnapshotPath(fdir, p.Tail().Gen))] != string(snap) || files[seg] != "" {
		t.Fatalf("installed mirror holds %d files, want the shipped snapshot and its empty segment %s", len(files), seg)
	}
	if got, want := mustStateHash(t, f.Model()), mustStateHash(t, p.Model()); got != want {
		t.Fatalf("installed mirror hash %s, primary %s", got, want)
	}
	if _, err := old.TrainBatch(pairs[:1]); err == nil {
		t.Fatal("the replaced mirror's store still takes writes")
	}
}

// TestOpenMirrorNeedsASnapshot: a directory without a snapshot is no
// mirror, whatever segments it holds.
func TestOpenMirrorNeedsASnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenMirror(dir, DurableOptions{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenMirror of an empty directory = %v, want ErrNoSnapshot", err)
	}
	if err := os.WriteFile(wal.SegmentPath(dir, 0), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMirror(dir, DurableOptions{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenMirror of a segment-only directory = %v, want ErrNoSnapshot", err)
	}
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"llmq/internal/wal"
)

// durableConfig is a small capped configuration that exercises everything the
// durability contract must carry: RLS solver state, WinDecay win counts and
// stamps, eviction, and an un-reachable convergence threshold so every pair
// keeps training.
func durableConfig() Config {
	cfg := DefaultConfig(3)
	cfg.Vigilance = 0.5
	cfg.MaxPrototypes = 16
	cfg.Eviction = Eviction{HalfLife: 64}
	// Unreachable convergence: a converged model freezes and stops counting
	// steps, which would make step-count assertions depend on where the
	// stream happens to converge.
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	return cfg
}

// checkpointBytes snapshots the full training state.
func checkpointBytes(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// canonicalState renders the full training state slot-order independently,
// reading the writer's own objects rather than any serialized form, as
// StateHash hashes it: sorting the per-prototype lines compares the state,
// not the numbering. Floats print as exact hex.
func canonicalState(t testing.TB, m *Model) string {
	t.Helper()
	cfg := m.Config()
	cfg.ResolutionA = 0 // only ever an input to Vigilance; not part of the state
	var rows []string
	for _, e := range writerSlots(m) {
		rows = append(rows, fmt.Sprintf("%x %x wins=%d stamp=%d rls=%x", e.row, e.coef, e.wins, e.stamp, e.p))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sort.Strings(rows)
	return fmt.Sprintf("%+v steps=%d converged=%v quiet=%d gamma=%x\n%s",
		cfg, m.steps, m.converged, m.quietSteps, m.lastGamma, strings.Join(rows, "\n"))
}

// TestLoadTornPrefix cuts a saved model at arbitrary byte offsets — the torn
// file a non-atomic writer leaves after a crash — and requires Load to fail
// with ErrBadModelFile and a message naming the frame, never to succeed on or
// panic over a prefix. The cuts fall before the magic (not a frame-format
// file), inside the header frame, on its end, and inside the rows.
func TestLoadTornPrefix(t *testing.T) {
	m, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(planeStream(500, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	head := wal.FrameHeaderLen + len(splitFrames(t, full)[0])
	for _, cut := range []int{0, 1, wal.FrameHeaderLen + len(checkpointMagic) - 1, wal.FrameHeaderLen + len(checkpointMagic),
		head - 1, head, len(full) / 4, len(full) / 2, len(full) - 1} {
		_, err := Load(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrBadModelFile) {
			t.Errorf("prefix of %d/%d bytes: err = %v, want ErrBadModelFile", cut, len(full), err)
			continue
		}
		if !strings.Contains(err.Error(), "frame") {
			t.Errorf("prefix of %d bytes: error %q does not locate the damage", cut, err)
		}
	}
	// Corruption mid-file (a flipped byte) must also be located.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] = '}'
	if _, err := Load(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadModelFile) || !strings.Contains(err.Error(), "frame") {
		t.Errorf("mid-file corruption: err = %v, want ErrBadModelFile mentioning the frame", err)
	}
}

// TestSaveLoadSaveByteIdentical is the persistence contract for the win-decay
// state: win counts, last-win stamps and the step counter must survive a
// Save/Load cycle exactly, which the second Save proves byte for byte (any
// dropped or defaulted field would change the encoding).
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	m, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(planeStream(2000, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 13)); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("Save∘Load∘Save is not the identity: win/stamp/step state was dropped or defaulted")
	}

	// The checked-in model file (testdata/README.md) was saved the step
	// after a spawn, so its Γ is +Inf; that and its stamps must survive too.
	fixture, err := os.ReadFile("testdata/model.bin")
	if err != nil {
		t.Fatal(err)
	}
	if loaded, err = Load(bytes.NewReader(fixture)); err != nil {
		t.Fatal(err)
	}
	if loaded.Steps() != 403 || loaded.K() != 12 || !math.IsInf(loaded.lastGamma, 1) {
		t.Fatalf("fixture loaded steps=%d K=%d Γ=%v, recorded steps=403 K=12 Γ=+Inf", loaded.Steps(), loaded.K(), loaded.lastGamma)
	}
	if got := saveBytes(t, loaded); !bytes.Equal(got, fixture) {
		t.Error("Save∘Load of testdata/model.bin is not the identity")
	}
}

// TestCheckpointRoundTrip proves the two halves of the recovery contract
// separately from the WAL: a checkpoint reloads to the same checkpoint byte
// for byte (nothing training touches is missing, RLS matrices included), and
// the reloaded model trained on more pairs stays equivalent to the original
// trained on the same pairs (nothing it carries is stale).
func TestCheckpointRoundTrip(t *testing.T) {
	pairs := planeStream(3000, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 17)
	m, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(pairs[:2000]); err != nil {
		t.Fatal(err)
	}
	cp := checkpointBytes(t, m)
	loaded, err := Load(bytes.NewReader(cp))
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, loaded); !bytes.Equal(cp, got) {
		t.Fatal("Checkpoint∘Load∘Checkpoint is not the identity")
	}
	if _, err := m.TrainBatch(pairs[2000:]); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TrainBatch(pairs[2000:]); err != nil {
		t.Fatal(err)
	}
	if canonicalState(t, m) != canonicalState(t, loaded) {
		t.Fatal("original and reloaded models diverged on identical continuation pairs")
	}
}

// TestRecoverDurableRoundTrip drives the Durable lifecycle end to end: train
// through the WAL, close cleanly, recover, and require the recovered model to
// equal a plain in-memory model fed the identical pair sequence.
func TestRecoverDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(1200, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 19)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 300}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs[:700]); err != nil {
		t.Fatal(err)
	}
	for i := 700; i < len(pairs); i++ { // one-pair batches: the per-pair cadence
		if _, err := d.TrainBatch(pairs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	want := canonicalState(t, d.Model())
	wantHash := mustStateHash(t, d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Model().Steps() != len(pairs) {
		t.Fatalf("recovered %d steps, want %d", d.Model().Steps(), len(pairs))
	}
	if got := canonicalState(t, d.Model()); got != want {
		t.Fatal("recovered model differs from the model at Close")
	}
	if got := mustStateHash(t, d.Model()); got != wantHash {
		t.Fatalf("recovered StateHash %s, want %s", got, wantHash)
	}
	ref, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if got := canonicalState(t, ref); got != want {
		t.Fatal("recovered model differs from a plain model fed the same pairs")
	}
	if got := mustStateHash(t, ref); got != wantHash {
		t.Fatalf("reference StateHash %s, want %s", got, wantHash)
	}
}

// TestUnpersistableQueryIsRefused feeds the library's training entry points
// queries that no checkpoint could carry — a non-finite centre coordinate, a
// negative or non-finite radius — each as the second pair of a batch. Every
// one must be refused before it is applied or logged: the StateHash and the
// bytes of the data directory stay as they were, the Durable stays writable,
// and its checkpoint still loads.
func TestUnpersistableQueryIsRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Query{
		{Center: []float64{0.5, nan, 0.5}, Theta: 0.1},
		{Center: []float64{inf, 0.5, 0.5}, Theta: 0.1},
		{Center: []float64{0.5, 0.5, -inf}, Theta: 0.1},
		{Center: []float64{0.5, 0.5, 0.5}, Theta: -0.1},
		{Center: []float64{0.5, 0.5, 0.5}, Theta: nan},
		{Center: []float64{0.5, 0.5, 0.5}, Theta: inf},
	}
	for _, q := range bad[:3] {
		if _, err := NewQuery(q.Center, q.Theta); err == nil {
			t.Errorf("NewQuery accepted %v", q.Center)
		}
	}
	pairs := planeStream(200, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 23)
	good := pairs[len(pairs)-1]

	m, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	want := mustStateHash(t, m)
	for _, q := range bad {
		if _, err := m.Observe(q, 1); err == nil {
			t.Errorf("Observe accepted %v θ=%v", q.Center, q.Theta)
		}
		if _, err := m.TrainBatch([]TrainingPair{good, {Query: q, Answer: 1}}); err == nil {
			t.Errorf("TrainBatch accepted %v θ=%v", q.Center, q.Theta)
		}
	}
	if got := mustStateHash(t, m); got != want {
		t.Fatalf("StateHash %s after refused pairs, want %s", got, want)
	}

	dir := t.TempDir()
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	want, size := mustStateHash(t, d.Model()), dirBytes(t, dir)
	for _, q := range bad {
		if _, err := d.TrainBatch([]TrainingPair{good, {Query: q, Answer: 1}}); err == nil {
			t.Errorf("Durable.TrainBatch accepted %v θ=%v", q.Center, q.Theta)
		}
	}
	if got := mustStateHash(t, d.Model()); got != want {
		t.Fatalf("Durable StateHash %s after refused pairs, want %s", got, want)
	}
	if got := dirBytes(t, dir); got != size {
		t.Fatalf("data directory holds %d bytes after refused pairs, want %d", got, size)
	}
	if err := d.Failure(); err != nil {
		t.Fatalf("refused pairs failed the store: %v", err)
	}
	if _, err := Load(bytes.NewReader(checkpointBytes(t, d.Model()))); err != nil {
		t.Fatalf("checkpoint after refused pairs does not load: %v", err)
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// mustStateHash wraps Model.StateHash for test assertions.
func mustStateHash(t *testing.T, m *Model) string {
	t.Helper()
	h, err := m.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRecoverTruncatesTornTail injects garbage at the tail of the live
// segment — the on-disk signature of a crash mid-append — and requires
// recovery to keep every intact record, truncate the tail loudly, and resume
// appending at the cut.
func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(200, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 23)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 1 << 30}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs[:150]); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := wal.SegmentPath(dir, d.Tail().Gen)
	// Abandon d without Close — the crash — and tear the tail by hand.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var logs []string
	var logMu sync.Mutex
	opts.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, format)
		logMu.Unlock()
	}
	d2, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Model().Steps() != 150 {
		t.Fatalf("recovered %d steps, want 150", d2.Model().Steps())
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "torn") {
			found = true
		}
	}
	if !found {
		t.Errorf("torn-tail truncation was silent; logs: %q", logs)
	}
	// Appending must resume cleanly at the cut.
	if _, err := d2.TrainBatch(pairs[150:]); err != nil {
		t.Fatal(err)
	}
	if d2.Model().Steps() != len(pairs) {
		t.Fatalf("steps after resume = %d, want %d", d2.Model().Steps(), len(pairs))
	}
}

// TestRecoverFallsBackToPreviousSnapshot corrupts the newest snapshot and
// requires recovery to fall back one generation and replay the extra segment
// — landing on the same model, because replay is deterministic.
func TestRecoverFallsBackToPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(500, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 29)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 100}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs { // one-pair batches: a rotation every 100 pairs
		if _, err := d.TrainBatch(pairs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	want := canonicalState(t, d.Model())
	wantHash := mustStateHash(t, d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := wal.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Snapshots) < 2 {
		t.Fatalf("need a fallback generation, have snapshots %v", man.Snapshots)
	}
	newest := man.Snapshots[len(man.Snapshots)-1]
	if err := os.WriteFile(wal.SnapshotPath(dir, newest), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	opts.Logf = func(format string, args ...any) { logs = append(logs, format) }
	d2, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := canonicalState(t, d2.Model()); got != want {
		t.Fatal("fallback recovery landed on a different model")
	}
	if got := mustStateHash(t, d2.Model()); got != wantHash {
		t.Fatalf("fallback recovery StateHash %s, want %s", got, wantHash)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "falling back") {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot fallback was silent; logs: %q", logs)
	}
}

// TestRecoverMissingSegmentFails removes a segment the fallback path depends
// on: that is data loss, not a crash artifact, and recovery must refuse with
// an error naming the missing file rather than rebuild a silently wrong model.
func TestRecoverMissingSegmentFails(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(300, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 31)
	opts := DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 100}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := wal.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := man.Snapshots[len(man.Snapshots)-1]
	// Newest snapshot unreadable AND the fallback's segment gone: nothing
	// loadable remains above the damage.
	if err := os.WriteFile(wal.SnapshotPath(dir, newest), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(wal.SegmentPath(dir, newest-1)); err != nil {
		t.Fatal(err)
	}
	opts.Logf = func(string, ...any) {}
	if _, err := Recover(dir, durableConfig(), opts); err == nil {
		t.Fatal("recovery over missing segment succeeded")
	} else if !strings.Contains(err.Error(), filepath.Base(wal.SegmentPath(dir, newest-1))) {
		t.Errorf("error %q does not name the missing segment", err)
	}
}

// TestDurableConcurrentSnapshotObserve runs live durable training, forced
// snapshot rotations, lock-free Saves and pinned-View readers against each
// other; under -race this proves snapshotting never tears the state a reader
// or the WAL order observes.
func TestDurableConcurrentSnapshotObserve(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(800, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 37)
	d, err := Recover(dir, durableConfig(), DurableOptions{
		WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // forced rotations racing the cadence-driven ones
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := d.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // lock-free readers: pinned views and Saves
		defer wg.Done()
		rng := rand.New(rand.NewSource(41))
		for {
			select {
			case <-done:
				return
			default:
			}
			v := d.Model().View()
			if v.K() > 0 {
				q := pairs[rng.Intn(len(pairs))].Query
				if _, err := v.PredictMean(q); err != nil {
					t.Error(err)
					return
				}
			}
			if err := d.Model().Save(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := range pairs { // one-pair batches: the most interleaving points
		if _, err := d.TrainBatch(pairs[i : i+1]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The WAL must have captured every pair despite the interleaving.
	d2, err := Recover(dir, durableConfig(), DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Model().Steps() != len(pairs) {
		t.Fatalf("recovered %d steps, want %d", d2.Model().Steps(), len(pairs))
	}
}

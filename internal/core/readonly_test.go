package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"llmq/internal/wal"
)

// TestDurableFlipsReadOnlyOnWALFault injects a WAL write failure and
// requires the fail-safe contract end to end: the failing call reports
// ErrReadOnly with the root cause, the failure is sticky across every
// further training entry point even after the fault clears, queries keep
// answering from the in-memory model, and a fresh Recover over the
// directory reproduces exactly the acknowledged pairs — the injected
// fault dropped nothing that was acked.
func TestDurableFlipsReadOnlyOnWALFault(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(400, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 41)
	var arm atomic.Bool
	injected := errors.New("injected: no space left on device")
	opts := DurableOptions{
		WAL: wal.Options{Mode: wal.SyncNone, Fault: func(op string) error {
			if arm.Load() {
				return injected
			}
			return nil
		}},
		SnapshotEvery: 1 << 30, // no rotation: the acked pairs live in the WAL tail
		Logf:          t.Logf,
	}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := pairs[:300]
	if _, err := d.TrainBatch(acked); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, d.Model())

	// The fault hits: the batch is refused with ErrReadOnly + root cause.
	arm.Store(true)
	if _, err := d.TrainBatch(pairs[300:350]); !errors.Is(err, ErrReadOnly) || !errors.Is(err, injected) {
		t.Fatalf("faulted TrainBatch: err = %v, want ErrReadOnly wrapping the injected fault", err)
	}
	if d.Failure() == nil {
		t.Fatal("Failure() nil after a WAL fault")
	}

	// Sticky: the store stays read-only even after the disk "heals".
	arm.Store(false)
	if err := d.SetCapacity(8, Eviction{}, false); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("SetCapacity after fault cleared: err = %v, want ErrReadOnly", err)
	}
	if _, err := d.TrainBatch(pairs[350:360]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("TrainBatch after fault cleared: err = %v, want ErrReadOnly", err)
	}
	if err := d.Snapshot(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Snapshot on a read-only store: err = %v, want ErrReadOnly", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Sync on a read-only store: err = %v, want ErrReadOnly", err)
	}

	// Queries keep serving the in-memory model untouched.
	if got := canonicalState(t, d.Model()); got != want {
		t.Fatal("read-only flip changed the in-memory model")
	}
	if _, err := d.Model().PredictMean(acked[0].Query); err != nil {
		t.Fatalf("query on a read-only store: %v", err)
	}

	// Close reports the failure instead of pretending a clean shutdown.
	if err := d.Close(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Close on a read-only store: err = %v, want ErrReadOnly", err)
	}

	// Recovery after the fault clears: bit-identical to the model that
	// held exactly the acknowledged pairs.
	d2, err := Recover(dir, durableConfig(), DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Failure() != nil {
		t.Fatalf("fresh recovery is read-only: %v", d2.Failure())
	}
	if d2.Model().Steps() != len(acked) {
		t.Fatalf("recovered %d steps, want the %d acked pairs", d2.Model().Steps(), len(acked))
	}
	if got := canonicalState(t, d2.Model()); got != want {
		t.Fatal("recovered model differs from the state at the last ack")
	}
	// And the recovered store is writable again.
	if _, err := d2.TrainBatch(pairs[300:301]); err != nil {
		t.Fatalf("training after recovery: %v", err)
	}
}

// TestDurableReadOnlyOnRotationFault makes the failure injection hit the
// rotation fsync instead of a plain append: the store must flip read-only
// the same way (a checkpoint that cannot flush its superseded segment is
// a WAL failure like any other).
func TestDurableReadOnlyOnRotationFault(t *testing.T) {
	dir := t.TempDir()
	pairs := planeStream(100, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 43)
	var arm atomic.Bool
	injected := errors.New("injected: fsync failed")
	opts := DurableOptions{
		WAL: wal.Options{Mode: wal.SyncNone, Fault: func(op string) error {
			if arm.Load() && op == "sync" {
				return injected
			}
			return nil
		}},
		SnapshotEvery: 1 << 30,
		Logf:          t.Logf,
	}
	d, err := Recover(dir, durableConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	if err := d.Snapshot(); !errors.Is(err, ErrReadOnly) || !errors.Is(err, injected) {
		t.Fatalf("faulted Snapshot: err = %v, want ErrReadOnly wrapping the injected fault", err)
	}
	arm.Store(false)
	if _, err := d.TrainBatch(pairs[:1]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("TrainBatch after rotation fault: err = %v, want ErrReadOnly", err)
	}
	_ = d.Close()
}

// TestDurableSyncFaultMidBatch pins what the overlapped fsync must not
// change. TrainBatch applies the pairs while the batch's fsync is in flight,
// so a failing fsync finds the writer state already ahead — and still: the
// call fails with ErrReadOnly wrapping the fault, the store is sticky
// read-only, no reader ever sees the unsynced batch (a View taken after the
// failure answers bit for bit like one pinned before the batch), Close
// reports the failure, and recovery yields the pre-batch or the post-batch
// state and nothing else — the batch was written but never acknowledged, so
// both are legal.
func TestDurableSyncFaultMidBatch(t *testing.T) {
	pairs := planeStream(350, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 47)
	acked, batch := pairs[:300], pairs[300:]
	ref, err := NewModel(durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	var legal [2]string // the StateHash before and after the failed batch
	for i, part := range [][]TrainingPair{acked, batch} {
		if _, err := ref.TrainBatch(part); err != nil {
			t.Fatal(err)
		}
		if legal[i], err = ref.StateHash(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []wal.Options{
		{Mode: wal.SyncGroup, FlushBatch: len(batch), FlushInterval: time.Hour},
		{Mode: wal.SyncAlways},
	} {
		t.Run(w.Mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			var arm atomic.Bool
			injected := errors.New("injected: fsync failed")
			w.Fault = func(op string) error {
				if arm.Load() && op == "sync" {
					return injected
				}
				return nil
			}
			d, err := Recover(dir, durableConfig(), DurableOptions{WAL: w, SnapshotEvery: 1 << 30, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.TrainBatch(acked); err != nil {
				t.Fatal(err)
			}
			answers := func(v View) []uint64 {
				var bits []uint64
				for _, p := range pairs[:40] {
					y, err := v.PredictMean(p.Query)
					if err != nil {
						t.Fatal(err)
					}
					bits = append(bits, math.Float64bits(y))
				}
				return bits
			}
			before := answers(d.Model().View())

			arm.Store(true)
			if _, err := d.TrainBatch(batch); !errors.Is(err, ErrReadOnly) || !errors.Is(err, injected) {
				t.Fatalf("TrainBatch under a failing fsync: err = %v, want ErrReadOnly wrapping the injected fault", err)
			}
			arm.Store(false)
			if !errors.Is(d.Failure(), injected) {
				t.Fatalf("Failure() = %v, want the injected fault", d.Failure())
			}
			if _, err := d.TrainBatch(batch); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("TrainBatch after the fault cleared: err = %v, want ErrReadOnly", err)
			}
			after := d.Model().View()
			if after.Steps() != len(acked) {
				t.Fatalf("the published version has %d steps, want the %d acknowledged", after.Steps(), len(acked))
			}
			if got := answers(after); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Fatal("a View taken after the failed batch answers differently from one pinned before it: the unsynced batch was published")
			}
			if steps, hash, err := d.StateHash(); !errors.Is(err, ErrReadOnly) || !errors.Is(err, injected) {
				t.Fatalf("StateHash on the failed store = steps %d, hash %.12s, err %v; want ErrReadOnly wrapping the injected fault (the writer state holds the unacknowledged batch)",
					steps, hash, err)
			}
			if err := d.Close(); !errors.Is(err, ErrReadOnly) || !errors.Is(err, injected) {
				t.Fatalf("Close on the failed store: err = %v, want ErrReadOnly wrapping the injected fault", err)
			}

			d2, err := Recover(dir, durableConfig(), DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if _, hash, err := d2.StateHash(); err != nil || (hash != legal[0] && hash != legal[1]) {
				t.Fatalf("recovered state hash %.12s (err %v) is neither the pre-batch %.12s nor the post-batch %.12s",
					hash, err, legal[0], legal[1])
			}
		})
	}
}

// TestDurableTrainBatchIsOneWrite counts the I/O of a durable batch with the
// Fault hook: whatever its size a TrainBatch call is one segment write, plus
// one fsync when the policy says one is due — group at FlushBatch pending
// records, always on every call, none never; a group batch below FlushBatch
// leaves the fsync to the interval timer. And the bytes did not move: the
// segment equals the same records appended one call at a time.
func TestDurableTrainBatchIsOneWrite(t *testing.T) {
	pairs := planeStream(300, 3, 0.3, []float64{0.5, -0.2, 1.1}, 1.0, 53)
	for _, tc := range []struct {
		opts  wal.Options
		sizes []int
		syncs []int // fsyncs made by the time each call returns
	}{
		{wal.Options{Mode: wal.SyncGroup, FlushInterval: 200 * time.Millisecond}, []int{256, 300, 10}, []int{1, 1, 0}},
		{wal.Options{Mode: wal.SyncAlways}, []int{1, 10, 300}, []int{1, 1, 1}},
		{wal.Options{Mode: wal.SyncNone}, []int{1, 10, 300}, []int{0, 0, 0}},
	} {
		t.Run(tc.opts.Mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			var writes, syncs atomic.Int64
			synced := make(chan struct{}, 1) // the timer's fsync, where one is expected
			tc.opts.Fault = func(op string) error {
				if op == "write" {
					writes.Add(1)
					return nil
				}
				syncs.Add(1)
				select {
				case synced <- struct{}{}:
				default:
				}
				return nil
			}
			d, err := Recover(dir, durableConfig(), DurableOptions{WAL: tc.opts, SnapshotEvery: 1 << 30, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			var logged []TrainingPair
			for i, n := range tc.sizes {
				writes.Store(0)
				syncs.Store(0)
				select {
				case <-synced:
				default:
				}
				if _, err := d.TrainBatch(pairs[:n]); err != nil {
					t.Fatal(err)
				}
				logged = append(logged, pairs[:n]...)
				if w, s := writes.Load(), syncs.Load(); w != 1 || s != int64(tc.syncs[i]) {
					t.Fatalf("a %d-pair batch made %d writes and %d fsyncs, want 1 and %d", n, w, s, tc.syncs[i])
				}
				if tc.opts.Mode == wal.SyncGroup && tc.syncs[i] == 0 {
					// Below FlushBatch the call armed the interval timer.
					select {
					case <-synced:
					case <-time.After(10 * time.Second):
						t.Fatalf("no timer fsync followed a %d-pair group batch", n)
					}
				}
			}
			got, err := os.ReadFile(wal.SegmentPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			refDir := t.TempDir()
			ref, err := wal.Continue(refDir, wal.Options{Mode: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range logged {
				if err := ref.Append(wal.Record{Center: p.Query.Center, Theta: p.Query.Theta, Answer: p.Answer}); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(wal.SegmentPath(refDir, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("the batched segment (%d bytes) differs from the same records appended one at a time (%d bytes)", len(got), len(want))
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestFaultHookInjectsWriteErrors proves the Options.Fault hook turns an
// append into the injected I/O error and that the writer's sticky-error
// contract holds afterwards: every further append fails with the first
// error even once the hook is disarmed, because a log that may have a
// hole must not keep growing.
func TestFaultHookInjectsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	var arm atomic.Bool
	injected := errors.New("injected: no space left on device")
	l, err := Continue(dir, Options{Mode: SyncNone, Fault: func(op string) error {
		if arm.Load() && op == "write" {
			return injected
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Center: []float64{0.5}, Theta: 0.1, Answer: 1}
	if err := l.Append(rec); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	arm.Store(true)
	if err := l.Append(rec); !errors.Is(err, injected) {
		t.Fatalf("faulted append: err = %v, want the injected error", err)
	}
	arm.Store(false)
	if err := l.Append(rec); !errors.Is(err, injected) {
		t.Fatalf("append after fault cleared: err = %v, want the sticky first error", err)
	}
	// The record appended before the fault is intact on disk.
	n, corrupt, err := Replay(SegmentPath(dir, 0), func(Record) error { return nil })
	if err != nil || corrupt != nil || n != 1 {
		t.Fatalf("replay after fault: n=%d corrupt=%v err=%v, want exactly the 1 healthy record", n, corrupt, err)
	}
}

// TestFaultHookInjectsSyncErrors injects a failure into the fsync path:
// the append that triggers the inline group fsync reports it, and it is
// sticky.
func TestFaultHookInjectsSyncErrors(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected: fsync I/O error")
	l, err := Continue(dir, Options{
		Mode:       SyncGroup,
		FlushBatch: 2,
		Fault: func(op string) error {
			if op == "sync" {
				return injected
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Center: []float64{0.5}, Theta: 0.1, Answer: 1}
	if err := l.Append(rec); err != nil {
		t.Fatalf("first append (below the flush batch): %v", err)
	}
	if err := l.Append(rec); !errors.Is(err, injected) {
		t.Fatalf("append at the flush batch: err = %v, want the injected fsync error", err)
	}
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("sync after fault: err = %v, want sticky", err)
	}
}

// TestFaultHookOffIsInert double-checks the nil hook costs nothing and
// changes nothing: a log written with a never-firing hook matches one
// written without any.
func TestFaultHookOffIsInert(t *testing.T) {
	rec := Record{Center: []float64{0.25, 0.75}, Theta: 0.2, Answer: -3}
	write := func(dir string, opts Options) []byte {
		l, err := Continue(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "wal-000000.log"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := write(t.TempDir(), Options{Mode: SyncNone})
	hooked := write(t.TempDir(), Options{Mode: SyncNone, Fault: func(string) error { return nil }})
	if string(plain) != string(hooked) {
		t.Error("a never-firing fault hook changed the bytes on disk")
	}
}

// TestAppendBatchIsOneWriteSameBytes: a multi-record Append is one segment
// write whose bytes are the records' frames back to back — exactly what the
// same records appended one call at a time produce — and AppendStart hands
// the due fsync to the sync goroutine, whose result Wait returns once.
func TestAppendBatchIsOneWriteSameBytes(t *testing.T) {
	dir := t.TempDir()
	var writes, syncs atomic.Int64
	l, err := Continue(dir, Options{Mode: SyncAlways, Fault: func(op string) error {
		if op == "write" {
			writes.Add(1)
		} else {
			syncs.Add(1)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{testRecord(0), testRecord(1), {Kind: KindCapacity, MaxPrototypes: 40, Eviction: "recency", Merge: true}, testRecord(2)}
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if w, s := writes.Load(), syncs.Load(); w != 1 || s != 1 {
		t.Fatalf("a %d-record Append made %d writes and %d fsyncs, want 1 and 1", len(recs), w, s)
	}
	if err := l.AppendStart(recs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(); err != nil {
		t.Fatal(err)
	}
	if w, s := writes.Load(), syncs.Load(); w != 2 || s != 2 {
		t.Fatalf("after AppendStart + Wait: %d writes and %d fsyncs, want 2 and 2", w, s)
	}
	if err := l.Wait(); err != nil {
		t.Fatalf("Wait with nothing in flight: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeSegment(t, append(recs, recs[:2]...)...); !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, want the %d of the records' frames back to back", len(got), len(want))
	}
}

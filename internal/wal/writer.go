package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// SyncMode selects how appended records reach stable storage.
type SyncMode int

const (
	// SyncGroup (the default) batches fsyncs: an append call is flushed to
	// the OS immediately, in one write, but fsynced only when FlushBatch
	// records have accumulated or FlushInterval has elapsed since the
	// first unsynced one, whichever comes first. A crash loses at most the
	// unsynced tail, which recovery truncates at the last intact record.
	SyncGroup SyncMode = iota
	// SyncAlways fsyncs every append call before it is acknowledged:
	// nothing acknowledged is ever lost, at the cost of one disk flush per
	// call — per pair for Observe, per batch for TrainBatch.
	SyncAlways
	// SyncNone never fsyncs explicitly; durability is whatever the OS page
	// cache provides. For bulk loads whose source can be replayed anyway.
	SyncNone
)

// String names the mode as accepted by ParseSyncMode.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "group"
	}
}

// ParseSyncMode resolves a -wal-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync mode %q (want group, always or none)", s)
	}
}

// Options configures the append side of a log.
type Options struct {
	// Mode is the fsync policy; the zero value is SyncGroup.
	Mode SyncMode
	// FlushInterval caps how long an appended record may stay unsynced
	// under SyncGroup; ≤ 0 defaults to 10ms.
	FlushInterval time.Duration
	// FlushBatch caps how many records may accumulate unsynced under
	// SyncGroup: the append call that reaches it is fsynced before it is
	// acknowledged. The policy is evaluated once per call, after the
	// call's one write, so a larger batch still costs one fsync; ≤ 0
	// defaults to 256.
	FlushBatch int
	// Fault, when non-nil, is consulted before every physical segment
	// write and fsync with the operation name ("write" or "sync"); a
	// non-nil return is treated as that operation's I/O error, including
	// the writer's sticky-error behaviour. It exists so the chaos and
	// crash harnesses can inject disk failures (ENOSPC, dying device)
	// without a faulty filesystem; production paths leave it nil.
	Fault func(op string) error
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = 10 * time.Millisecond
	}
	if o.FlushBatch <= 0 {
		o.FlushBatch = 256
	}
	return o
}

var errClosed = errors.New("wal: writer is closed")

// writer appends framed records to one segment file. Append errors are
// sticky: after any write or fsync failure every further call returns the
// first error, because a log with a hole in it must not keep growing.
type writer struct {
	mu      sync.Mutex
	f       *os.File
	opts    Options
	buf     []byte // one append call's frames, written with one write
	pending int    // records written since the last fsync
	size    int64  // the segment's length: what it held at open plus every write
	timer   *time.Timer
	err     error
}

func newWriter(f *os.File, size int64, opts Options) *writer {
	return &writer{f: f, size: size, opts: opts.withDefaults()}
}

// append encodes recs into the writer's one buffer, writes them with one
// segment write and evaluates the sync policy once for the whole call: the
// call is the unit, whether it carries one record or a /train batch. It
// reports whether the policy wants an fsync now — under SyncAlways after
// every call, under SyncGroup once FlushBatch records are pending — and
// leaves issuing it (sync) to the caller, who may overlap it with its own
// work; a group append below the batch arms the interval timer instead.
func (w *writer) append(recs []Record) (syncDue bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return false, w.err
	}
	if len(recs) == 0 {
		return false, nil
	}
	w.buf = w.buf[:0]
	for _, r := range recs {
		w.buf = appendRecord(w.buf, r)
	}
	return w.writeLocked(w.buf, len(recs))
}

// appendFramed is append for n records already framed into frames, which
// are written verbatim: a follower mirroring a primary's segment bytes.
func (w *writer) appendFramed(frames []byte, n int) (syncDue bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return false, w.err
	}
	return w.writeLocked(frames, n)
}

// writeLocked writes one call's frames (n records) with one segment write
// and evaluates the sync policy once for the call.
func (w *writer) writeLocked(frames []byte, n int) (syncDue bool, err error) {
	if err := w.physWrite(frames); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return false, w.err
	}
	w.size += int64(len(frames))
	w.pending += n
	switch w.opts.Mode {
	case SyncAlways:
		return true, nil
	case SyncGroup:
		if w.pending >= w.opts.FlushBatch {
			return true, nil
		}
		if w.timer == nil {
			w.timer = time.AfterFunc(w.opts.FlushInterval, w.timerSync)
		}
	}
	return false, nil
}

// timerSync is the deferred group fsync; a failure is recorded sticky and
// surfaces on the next append or sync.
func (w *writer) timerSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.timer = nil
	if w.err == nil && w.pending > 0 {
		_ = w.syncLocked()
	}
}

// physWrite performs one segment write, routed through the fault hook.
func (w *writer) physWrite(b []byte) error {
	if f := w.opts.Fault; f != nil {
		if err := f("write"); err != nil {
			return err
		}
	}
	_, err := w.f.Write(b)
	return err
}

// physSync performs one segment fsync, routed through the fault hook.
func (w *writer) physSync() error {
	if f := w.opts.Fault; f != nil {
		if err := f("sync"); err != nil {
			return err
		}
	}
	return w.f.Sync()
}

// syncLocked fsyncs the segment and clears the pending count and timer.
func (w *writer) syncLocked() error {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if err := w.physSync(); err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("wal: fsync: %w", err)
		}
		return w.err
	}
	w.pending = 0
	return nil
}

// sync forces any pending records to stable storage. It overrides the
// policy — even under SyncNone — because rotation relies on the superseded
// segment being durable before the snapshot that replaces it is published.
func (w *writer) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	return w.syncLocked()
}

// close syncs and closes the segment file; closing it again is a no-op.
func (w *writer) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == errClosed {
		return nil
	}
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	var firstErr error
	if w.err == nil {
		if err := w.physSync(); err != nil {
			firstErr = fmt.Errorf("wal: fsync on close: %w", err)
		}
	} else {
		firstErr = w.err
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	w.err = errClosed
	return firstErr
}

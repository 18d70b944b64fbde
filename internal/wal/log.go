package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Directory layout. One data directory holds generation-numbered files:
//
//	snap-000003.bin    model snapshot generation 3 (covers segments < 3)
//	wal-000003.log     records appended after snapshot 3 was taken
//
// A snapshot's bytes are the caller's (internal/core writes its binary
// checkpoint: frames of the same kind the segments hold). Directories
// written before the binary format hold snap-NNNNNN.json instead; List and
// OpenSnapshot still read those, nothing writes them, and rotation retires
// them like any other old generation.
//
// Generation g of the snapshot captures the model state after every record
// in segments 0..g-1; segment g holds the records observed since. Rotation
// (writing snapshot g+1) keeps generation g around as a fallback — if
// snapshot g+1 turns out to be unreadable at boot, recovery loads snapshot
// g and replays segments g and g+1, which reproduces the same state because
// replay is deterministic — and deletes generations ≤ g−1. A directory with
// no snapshot at all recovers from scratch iff segment 0 is still present.

const (
	snapPrefix, snapSuffix = "snap-", ".bin"
	legacySnapSuffix       = ".json"
	segPrefix, segSuffix   = "wal-", ".log"
	tmpSuffix              = ".tmp"
)

func genPath(dir, prefix string, gen uint64, suffix string) string {
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], gen, 10)
	pad := "000000"[min(len(digits), 6):]
	return filepath.Join(dir, prefix+pad+string(digits)+suffix)
}

// parseGen extracts the generation from a file name of the form
// prefix + %06d + suffix, accepting only the canonical spelling.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, suffix); !ok || len(digits) < 6 || (len(digits) > 6 && digits[0] == '0') {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, err == nil
}

// SnapshotPath returns the path of the generation-gen snapshot file.
func SnapshotPath(dir string, gen uint64) string {
	return genPath(dir, snapPrefix, gen, snapSuffix)
}

// SegmentPath returns the path of the generation-gen log segment.
func SegmentPath(dir string, gen uint64) string {
	return genPath(dir, segPrefix, gen, segSuffix)
}

// OpenSnapshot opens the generation-gen snapshot for reading, falling back
// to the legacy .json name a pre-binary-format directory holds.
func OpenSnapshot(dir string, gen uint64) (*os.File, error) {
	f, err := os.Open(SnapshotPath(dir, gen))
	if errors.Is(err, os.ErrNotExist) {
		if lf, lerr := os.Open(genPath(dir, snapPrefix, gen, legacySnapSuffix)); lerr == nil {
			return lf, nil
		}
	}
	return f, err
}

// Manifest lists what a data directory holds, as generation numbers.
type Manifest struct {
	// Snapshots holds the snapshot generations present, ascending.
	Snapshots []uint64
	// Segments holds the log-segment generations present, ascending.
	Segments []uint64
}

// genFile is one generation-numbered file of a data directory.
type genFile struct {
	gen  uint64
	path string
	snap bool // a snapshot (under either name), else a segment
}

// scan lists the generation-numbered files of a data directory, creating it
// if absent. Temporary files from snapshot writes are skipped.
func scan(dir string) ([]genFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read data dir: %w", err)
	}
	var files []genFile
	for _, e := range entries {
		for _, kind := range [...]struct {
			prefix, suffix string
			snap           bool
		}{{snapPrefix, snapSuffix, true}, {snapPrefix, legacySnapSuffix, true}, {segPrefix, segSuffix, false}} {
			if gen, ok := parseGen(e.Name(), kind.prefix, kind.suffix); ok {
				files = append(files, genFile{gen, filepath.Join(dir, e.Name()), kind.snap})
				break
			}
		}
	}
	return files, nil
}

// List scans a data directory (creating it if absent) and returns its
// manifest. Temporary files from snapshot writes are skipped, never touched
// — List must be safe concurrently with a rotation in flight (the
// replication shipper's TailRead polls it against a live directory), so a
// temp file it sees may be a rotation's about-to-be-renamed snapshot, not
// crash litter. Boot paths that own the directory exclusively call
// RemoveTemp for the cleanup.
func List(dir string) (Manifest, error) {
	files, err := scan(dir)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	for _, f := range files {
		if f.snap {
			m.Snapshots = append(m.Snapshots, f.gen)
		} else {
			m.Segments = append(m.Segments, f.gen)
		}
	}
	slices.Sort(m.Snapshots)
	m.Snapshots = slices.Compact(m.Snapshots) // a generation present under both names
	slices.Sort(m.Segments)
	return m, nil
}

// RemoveTemp deletes leftover temporary files from snapshot writes a crash
// interrupted — they were never published, so they are garbage. Only a
// caller that owns the directory exclusively (a boot path, before any
// writer or replication shipper runs) may call it: under a live Log, a
// temp file may belong to a rotation in flight.
func RemoveTemp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("wal: read data dir: %w", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == tmpSuffix {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("wal: remove temp file: %w", err)
			}
		}
	}
	return nil
}

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the previous file (or no file) or the complete new one, never a torn
// prefix: the content goes to a temporary sibling, is fsynced, renamed over
// the target, and the directory entry is fsynced. The write callback
// produces the content.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("wal: create temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", tmp.Name(), err)
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("wal: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a power failure. Some filesystems refuse to fsync directories;
// that is reported, not swallowed, because rotation's deletion of old
// generations depends on the rename being durable first.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir %s: %w", dir, err)
	}
	return nil
}

// Replay streams every record of the segment at path through fn in order.
// It returns the number of records delivered and, when the segment ends in
// a torn or corrupt record instead of a clean boundary, the *CorruptError
// locating it (records before the corruption are still delivered). An error
// from fn aborts the replay and is returned verbatim.
func Replay(path string, fn func(Record) error) (int, *CorruptError, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	sc := NewScanner(f)
	n := 0
	for sc.Next() {
		if err := fn(sc.Record()); err != nil {
			return n, nil, err
		}
		n++
	}
	var corrupt *CorruptError
	if err := sc.Err(); err != nil {
		errors.As(err, &corrupt)
	}
	return n, corrupt, nil
}

// TruncateTorn cuts the segment at path down to size bytes — the ValidSize
// of a scan that hit a torn tail — and fsyncs it, so the next scan ends at
// a clean record boundary.
func TruncateTorn(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: reopen after truncate: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync after truncate: %w", err)
	}
	return nil
}

// Log is the append side of a data directory: the open tail segment plus
// the rotation machinery. Append and Sync are safe for concurrent use;
// Rotate, AppendStart/Wait and Close belong to one caller that serializes
// its log calls (core.Durable's mutex).
type Log struct {
	dir  string
	opts Options
	gen  uint64 // generation of the open tail segment
	w    *writer
	// files lists the generation-numbered files the directory holds: what
	// Continue found plus what each Rotate created. Rotation deletes from
	// it, so retiring old generations costs no directory scan.
	files []genFile
	// The sync goroutine AppendStart hands a due fsync to, started on first
	// use and stopped by Close; inFlight marks a result Wait has yet to take.
	syncReq  chan *writer
	syncDone chan error
	inFlight bool
}

// Continue opens the data directory's newest segment for appending,
// creating segment 0 in a fresh directory (or the segment matching the
// newest snapshot when rotation was interrupted between the snapshot
// rename and the segment creation). The caller must have finished recovery
// first — any torn tail must already be truncated, because appending after
// a torn record would bury it mid-segment where recovery refuses to
// truncate.
func Continue(dir string, opts Options) (*Log, error) {
	files, err := scan(dir)
	if err != nil {
		return nil, err
	}
	// Boot owns the directory exclusively, so interrupted-write litter is
	// safe to clear here — and must not be cleared anywhere less exclusive.
	if err := RemoveTemp(dir); err != nil {
		return nil, err
	}
	// The newest generation of either kind. A snapshot newer than every
	// segment means a crash between the snapshot rename and the new segment
	// creation: the snapshot supersedes every existing segment, so the tail
	// segment it expects is simply empty. Create it.
	var gen uint64
	for _, f := range files {
		gen = max(gen, f.gen)
	}
	seg := SegmentPath(dir, gen)
	f, err := os.OpenFile(seg, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if !slices.Contains(files, genFile{gen, seg, false}) {
		files = append(files, genFile{gen, seg, false})
	}
	return &Log{dir: dir, opts: opts.withDefaults(), gen: gen, w: newWriter(f, opts), files: files}, nil
}

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

// Gen returns the generation of the open tail segment (equal to the newest
// snapshot's generation once one exists).
func (l *Log) Gen() uint64 { return l.gen }

// Append logs the records of one call with one segment write, then applies
// the configured sync policy once: when it says an fsync is due (SyncAlways;
// SyncGroup once FlushBatch records are pending) Append performs it before
// returning. The store's admin path (a capacity change) writes through it;
// training batches use AppendStart, which overlaps the fsync. The
// records are durable once the policy has fsynced them; under SyncGroup that
// is within FlushInterval/FlushBatch, and a crash before then loses them
// (recovery truncates the torn tail).
func (l *Log) Append(recs ...Record) error {
	due, err := l.w.append(recs)
	if err != nil || !due {
		return err
	}
	return l.w.sync()
}

// AppendFramed is Append for n records that are already framed: frames is
// written verbatim, with one segment write, under the same sync policy,
// fault hook and sticky errors. A replication follower mirrors the bytes its
// primary shipped through it, so its segment equals the primary's byte for
// byte.
func (l *Log) AppendFramed(frames []byte, n int) error {
	due, err := l.w.appendFramed(frames, n)
	if err != nil || !due {
		return err
	}
	return l.w.sync()
}

// AppendStart is Append with the due fsync started instead of awaited: it
// returns after the write, and an fsync the policy says is due is by then
// running on the log's sync goroutine, so the caller can do its own work
// while the disk flushes. The caller must call Wait before it treats the
// records as durable, and before its next AppendStart, Rotate or Close;
// like Rotate, the pair is for a caller that serializes its log calls.
func (l *Log) AppendStart(recs []Record) error {
	due, err := l.w.append(recs)
	if err != nil || !due {
		return err
	}
	if l.syncReq == nil {
		// One fsync is in flight at a time, so one slot each way means
		// neither side ever blocks on the hand-off.
		l.syncReq, l.syncDone = make(chan *writer, 1), make(chan error, 1)
		go func(req <-chan *writer, done chan<- error) {
			defer close(done)
			for w := range req {
				done <- w.sync()
			}
		}(l.syncReq, l.syncDone)
	}
	l.syncReq <- l.w
	l.inFlight = true
	return nil
}

// Wait returns the result of the fsync AppendStart started, blocking until
// it finishes; with none in flight it returns nil at once. A failure is the
// writer's sticky error, as from an inline fsync.
func (l *Log) Wait() error {
	if !l.inFlight {
		return nil
	}
	l.inFlight = false
	return <-l.syncDone
}

// Sync forces every appended record to stable storage regardless of the
// sync policy.
func (l *Log) Sync() error { return l.w.sync() }

// Rotate publishes a snapshot of the current state and retires the log it
// supersedes: the tail segment is fsynced, writeSnapshot's content becomes
// snapshot generation gen+1 via an atomic temp-fsync-rename, a fresh empty
// segment gen+1 takes over appends, and generations ≤ gen−1 — now two
// snapshots behind — are deleted. The caller must guarantee writeSnapshot
// captures exactly the state after every record appended so far (i.e. no
// concurrent appends), which is what makes "newest snapshot + tail replay"
// equal the uncrashed model.
func (l *Log) Rotate(writeSnapshot func(io.Writer) error) error {
	// The superseded segment must be durable before the snapshot that
	// replaces it exists: if the snapshot rename landed but the segment's
	// tail did not, a fallback recovery from the previous generation would
	// replay a hole.
	if err := l.w.sync(); err != nil {
		return err
	}
	next := l.gen + 1
	snap, seg := SnapshotPath(l.dir, next), SegmentPath(l.dir, next)
	if err := WriteFileAtomic(snap, writeSnapshot); err != nil {
		return err
	}
	f, err := os.OpenFile(seg, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open next segment: %w", err)
	}
	if err := l.w.close(); err != nil {
		f.Close()
		return err
	}
	l.w = newWriter(f, l.opts)
	l.gen = next
	// Only after the new generation is fully in place are the old ones
	// expendable; a crash anywhere above leaves extra files, never missing
	// ones, and List/recovery tolerate extras (the next boot's Continue
	// finds them, and its first rotation retires them). Best-effort: the
	// files are only garbage.
	keep := l.files[:0]
	for _, f := range l.files {
		if f.gen+2 <= next {
			_ = os.Remove(f.path)
		} else {
			keep = append(keep, f)
		}
	}
	l.files = append(keep, genFile{next, snap, true}, genFile{next, seg, false})
	return nil
}

// Close syncs and closes the tail segment; closing a closed log is a
// no-op. It does not snapshot; callers that want a clean shutdown (so the
// next boot replays nothing) call Rotate first.
func (l *Log) Close() error {
	if l.syncReq != nil {
		_ = l.Wait() // a failure is sticky in the writer; close reports it
		close(l.syncReq)
		<-l.syncDone // closed by the sync goroutine as it exits
		l.syncReq = nil
	}
	return l.w.close()
}

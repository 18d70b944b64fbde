package core

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"llmq/internal/wal"
)

// ErrReadOnly marks a Durable whose write-ahead log failed: the store has
// flipped to read-only — queries keep answering from the in-memory model,
// but every further training call fails with an error wrapping this
// sentinel and the original I/O failure. The failure is sticky by design:
// a log that could not take an append has an undefined tail, and training
// past it would hand out acknowledgements the WAL cannot back. Recovery
// (a process restart over the same directory, once the disk is healthy)
// is the only way back to writable.
var ErrReadOnly = errors.New("core: durable store is read-only after a WAL failure")

// The durability layer: a Model wrapped so that every training pair is
// written ahead to a wal.Log before it is published, periodic Checkpoint
// snapshots bound the replay work, and Recover reconstructs the exact
// model — bit for bit, including the solver state and the eviction clock —
// from whatever a crash left in the data directory. The contract chain:
//
//	Checkpoint persists everything training touches        (serialize.go)
//	training is deterministic given the pair sequence      (model.go)
//	the WAL totally orders the pair sequence               (Durable.mu)
//	=> newest loadable snapshot + tail replay ≡ no crash.

// DurableOptions configures Recover and the Durable it returns.
type DurableOptions struct {
	// WAL configures the write-ahead log's sync policy; the zero value is
	// group fsync with the default interval and batch.
	WAL wal.Options
	// SnapshotEvery is the number of training pairs between automatic
	// snapshot rotations. Smaller values bound replay-on-boot time at the
	// cost of more frequent full-model writes; values ≤ 0 default to 4096.
	SnapshotEvery int
	// Logf receives the loud recovery diagnostics (torn-tail truncation,
	// snapshot fallback). nil uses the standard library logger.
	Logf func(format string, args ...any)
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4096
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Durable is a Model whose training stream survives crashes: TrainBatch
// appends its pairs to the write-ahead log under the configured sync policy
// before they are published, and every SnapshotEvery pairs the
// model is checkpointed and the log rotated. Obtain one with Recover.
// Training calls serialize on the Durable (they must — the WAL order is the
// replay order); the wrapped Model's read side stays lock-free, so serving
// traffic is unaffected. All training must go through the Durable: a pair
// applied directly to Model() bypasses the log and is lost on the next crash.
//
// Failure is fail-safe, not fail-stop: the first WAL append, fsync or
// rotation error flips the store read-only (ErrReadOnly) while queries
// keep serving the in-memory model — see Failure.
//
// A replication follower's mirror is a Durable too, recovered by the same
// code: OpenMirror or InstallSnapshot returns it in the follower role, in
// which it takes the primary's shipped log bytes through Mirror instead of
// TrainBatch until Promote.
type Durable struct {
	m    *Model
	opts DurableOptions

	// bootID is a random token minted per Recover. Replication
	// followers pin it: a change means the primary restarted — and may have
	// truncated and rewritten log bytes the follower already consumed — so
	// the follower must re-bootstrap rather than trust its cursor.
	bootID string

	mu        sync.Mutex // orders append-then-apply; excludes rotation
	log       *wal.Log
	sinceSnap int   // pairs appended since the last snapshot
	failure   error // first WAL failure; non-nil flips the store read-only
	hashes    map[uint64]BoundaryHash
	hasSnap   bool          // a snapshot for the current generation exists on disk
	ckpt      checkpointBuf // the last captured state, reused by every rotation
	recs      []wal.Record  // TrainBatch's log records, reused by every batch
	// follow is non-nil while the store mirrors a primary's log (from
	// OpenMirror or InstallSnapshot until Promote): Mirror applies shipped
	// records through it, nothing rotates but the follower's explicit
	// Snapshot, and Close does not checkpoint — a generation the primary
	// does not have.
	follow *ReplayApplier
}

// BoundaryHash records the model's canonical state at one snapshot
// boundary: entering generation Gen, after Steps training steps. Followers
// compare it against their own state when they cross the same boundary.
type BoundaryHash struct {
	// Gen is the generation this state opens (the snapshot's generation).
	Gen uint64 `json:"gen"`
	// Steps is the model's training-step count at the boundary.
	Steps int `json:"steps"`
	// Hash is the canonical Model.StateHash at the boundary.
	Hash string `json:"hash"`
}

// boundaryHashKeep bounds the retained boundary-hash history; rotation GC
// keeps two generations of files, so a handful of hash entries is already
// generous for any follower that can still catch up incrementally.
const boundaryHashKeep = 16

// newBootID mints the per-boot random token.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a constant: replication then cannot distinguish
		// restarts, but durability itself is unaffected.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Recover reconstructs the model from the data directory and opens it for
// durable training: the newest loadable snapshot is loaded (an unreadable
// one is skipped with a loud log line, falling back to the previous
// generation — whose segments rotation retained for exactly this case) and
// the remaining WAL segments are replayed through the normal training path.
// A torn record at the tail of the newest segment is the signature of a
// crash mid-append: it is truncated away, loudly, and appending resumes at
// the cut. Corruption anywhere else — an unreadable non-newest segment, a
// missing generation — is data loss, not a crash artifact, and fails
// recovery with a descriptive error. A fresh or empty directory starts an
// empty model with the given configuration; cfg is only used in that case
// (an existing snapshot carries its own configuration). A directory whose
// snapshots all fail to load replays from segment 0 if it still holds it,
// and fails recovery otherwise.
func Recover(dir string, cfg Config, opts DurableOptions) (*Durable, error) {
	man, err := wal.List(dir)
	if err != nil {
		return nil, err
	}
	return recoverFrom(dir, man, cfg, opts)
}

// ErrNoSnapshot is OpenMirror's answer for a directory that holds no
// snapshot to follow from: a fresh follower, which installs its primary's.
var ErrNoSnapshot = errors.New("core: no snapshot to follow from")

// OpenMirror opens dir as a replication follower's mirror, in the follower
// role: from here Mirror is its writer, it rotates only when the follower
// calls Snapshot at the primary's rotation, and Close does not checkpoint —
// that would be a generation the primary does not have. Promote ends the
// role. The directory recovers as Recover recovers a primary's: the newest
// loadable snapshot, the contiguous segments above it, a torn tail
// truncated. A directory with no snapshot returns ErrNoSnapshot; a mirror
// never holds segment 0, so one whose snapshots all fail to load fails.
func OpenMirror(dir string, opts DurableOptions) (*Durable, error) {
	man, err := wal.List(dir)
	if err != nil {
		return nil, err
	}
	if len(man.Snapshots) == 0 {
		return nil, ErrNoSnapshot
	}
	// The config is unused: the snapshot carries its own.
	d, err := recoverFrom(dir, man, Config{}, opts)
	if err != nil {
		return nil, err
	}
	d.follow = NewReplayApplier(d.m)
	return d, nil
}

// InstallSnapshot replaces a follower's mirror in dir with the snapshot of
// generation gen its primary shipped, and returns the new mirror as
// OpenMirror does. The order never gives up a good mirror (Raft's
// InstallSnapshot rule: discard the old log only once the new snapshot is
// whole): the shipped bytes stream into a temporary file of dir, are
// decoded as LoadSnapshot decodes them and are fsynced; only then is old
// closed, every generation dir holds retired and the staged file renamed
// into place. Until the rename old stays open — serving, mirroring and
// promotable — and a failure before it leaves old and dir as they were. A
// failure after old is closed (a disk error while retiring or renaming)
// leaves its model answering reads, and its writes and Promote failing with
// ErrReadOnly. old is nil when dir holds no mirror yet.
func InstallSnapshot(dir string, old *Durable, gen uint64, snapshot io.Reader, opts DurableOptions) (*Durable, error) {
	var loadErr error
	staged, err := wal.Stage(dir, gen, func(w io.Writer) error {
		b, err := io.ReadAll(io.TeeReader(snapshot, w))
		if err == nil {
			_, loadErr = decodeModel(b, true)
			err = loadErr
		}
		return err
	})
	switch {
	case loadErr != nil:
		return nil, fmt.Errorf("shipped snapshot %d does not load: %w", gen, loadErr)
	case err != nil:
		return nil, fmt.Errorf("stage shipped snapshot %d: %w", gen, err)
	}
	if old != nil {
		_ = old.Close() // a follower's store closes without a checkpoint
	}
	if err := staged.Install(); err != nil {
		return nil, err
	}
	return OpenMirror(dir, opts)
}

// recoverFrom is Recover over the manifest man of dir.
func recoverFrom(dir string, man wal.Manifest, cfg Config, opts DurableOptions) (*Durable, error) {
	opts = opts.withDefaults()

	// Choose the recovery base: the newest snapshot that actually loads,
	// else a fresh model replaying from segment 0.
	var (
		m       *Model
		baseGen uint64
		newest  error // why the newest snapshot did not load
	)
	for i := len(man.Snapshots) - 1; i >= 0; i-- {
		gen := man.Snapshots[i]
		lm, lerr := readSnapshot(dir, gen)
		if lerr != nil {
			opts.Logf("core: recovery: snapshot %s unreadable (%v); falling back to previous generation", wal.SnapshotPath(dir, gen), lerr)
			if newest == nil {
				newest = fmt.Errorf("snapshot %s: %w", wal.SnapshotPath(dir, gen), lerr)
			}
			continue
		}
		m, baseGen = lm, gen
		break
	}
	var err error
	if m == nil {
		if len(man.Snapshots) > 0 {
			if len(man.Segments) == 0 || man.Segments[0] != 0 {
				// Nothing to replay from scratch: a fresh model here would
				// silently drop every generation the snapshots covered.
				return nil, fmt.Errorf("core: recovery: no loadable snapshot in %s, and segment %s, which a replay from scratch needs, is missing: %w",
					dir, wal.SegmentPath(dir, 0), newest)
			}
			opts.Logf("core: recovery: no loadable snapshot in %s; replaying the full log from segment 0", dir)
		}
		m, err = NewModel(cfg)
		if err != nil {
			return nil, err
		}
		baseGen = 0
	}

	// The segments to replay: every generation ≥ the base, contiguously.
	// A gap means a segment the state depends on is gone — rotation only
	// deletes generations two snapshots back, so a hole is real data loss.
	var replay []uint64
	for _, g := range man.Segments {
		if g >= baseGen {
			replay = append(replay, g)
		}
	}
	if len(replay) > 0 {
		if replay[0] != baseGen {
			return nil, fmt.Errorf("core: recovery: snapshot generation %d needs segment %s, which is missing", baseGen, wal.SegmentPath(dir, baseGen))
		}
		for i := 1; i < len(replay); i++ {
			if replay[i] != replay[i-1]+1 {
				return nil, fmt.Errorf("core: recovery: missing segment %s", wal.SegmentPath(dir, replay[i-1]+1))
			}
		}
	}
	replayed := 0
	for i, gen := range replay {
		newest := i == len(replay)-1
		n, err := replaySegment(m, dir, gen, newest, opts.Logf)
		if err != nil {
			return nil, err
		}
		replayed += n
	}

	l, err := wal.Continue(dir, opts.WAL)
	if err != nil {
		return nil, err
	}
	// Replayed records count toward the snapshot cadence: they are exactly
	// the replay debt the next boot would pay again, so the next rotation —
	// or a clean Close — folds them into a snapshot instead of letting a
	// kill-restart cycle replay the same tail forever.
	d := &Durable{m: m, opts: opts, bootID: newBootID(), log: l, sinceSnap: replayed,
		hashes: make(map[uint64]BoundaryHash)}
	d.hasSnap = fileExists(wal.SnapshotPath(dir, l.Gen()))
	if replayed == 0 && d.hasSnap && l.Gen() == baseGen {
		// The model sits exactly at a snapshot boundary; record its hash so
		// a follower bootstrapping from this snapshot can verify its copy.
		d.m.capture(&d.ckpt)
		d.recordBoundaryLocked(l.Gen())
	}
	return d, nil
}

// fileExists reports whether path exists (any stat failure counts as no).
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// readSnapshot loads one snapshot from disk through LoadSnapshot, so a Save
// file planted as a snapshot is unreadable here under the RLS solver.
func readSnapshot(dir string, gen uint64) (*Model, error) {
	f, err := os.Open(wal.SnapshotPath(dir, gen))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// replayChunk bounds the pairs buffered per TrainBatch call during replay,
// so replaying an arbitrarily long segment runs in constant memory.
const replayChunk = 4096

// replaySegment re-applies one WAL segment to the model through the shared
// ReplayApplier — the same code path live training takes, which is what
// makes replay reproduce the uncrashed model exactly. It returns the number
// of records re-applied. A torn tail is truncated only on the newest
// segment; anywhere else it fails recovery.
func replaySegment(m *Model, dir string, gen uint64, newest bool, logf func(string, ...any)) (int, error) {
	path := wal.SegmentPath(dir, gen)
	a := NewReplayApplier(m)
	n, corrupt, err := wal.Replay(path, func(r wal.Record) error {
		if aerr := a.Apply(r); aerr != nil {
			return fmt.Errorf("core: recovery: %s: %w", path, aerr)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := a.Flush(); err != nil {
		return 0, err
	}
	if corrupt != nil {
		if !newest {
			// A torn tail is only explicable on the segment that was being
			// appended when the crash hit; corruption below it means the
			// storage lost data that was fsynced long ago.
			return 0, fmt.Errorf("core: recovery: segment %s is corrupt mid-log: %w", path, corrupt)
		}
		logf("core: recovery: %s has a torn/corrupt tail at byte offset %d (%s); truncating to last valid record (%d records kept)",
			path, corrupt.Offset, corrupt.Reason, n)
		if terr := wal.TruncateTorn(path, corrupt.Offset); terr != nil {
			return 0, terr
		}
	}
	return n, nil
}

// Model returns the wrapped model for querying (and for read-only
// inspection). Training through it directly bypasses the log; use the
// Durable's TrainBatch.
func (d *Durable) Model() *Model { return d.m }

// failLocked records the first WAL failure — flipping the store read-only
// for good — and returns it wrapped in ErrReadOnly. Callers hold d.mu.
// After a failed batch the log may be ahead of the published model (a torn
// write, or a whole batch whose fsync failed — written, never published,
// never acknowledged); that is the safe direction: the next boot replays
// whatever prefix of it reached the disk through the normal training path,
// and no pair that was acknowledged is ever lost.
func (d *Durable) failLocked(err error) error {
	if d.failure == nil {
		d.failure = err
	}
	return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
}

// Failure returns nil while the store is writable, and the root-cause WAL
// error once it has flipped read-only (check errors.Is(err, ErrReadOnly)
// on training errors, or poll this for a readiness probe).
func (d *Durable) Failure() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failure
}

// TrainBatch durably consumes a batch as one unit: every pair is validated,
// the batch is appended to the log with one write, and the fsync the sync
// policy says is due (SyncAlways: every call; SyncGroup: once FlushBatch
// records are pending) runs while the pairs are applied under one
// writer-lock acquisition (see Model.TrainBatch). Three things wait for that
// fsync: the publication of the new version, the acknowledgement (this
// return) and the rotation check — so nothing becomes visible or is
// acknowledged earlier than if the fsync had run first. If it fails the
// store flips read-only, the batch is neither published nor acknowledged
// (readers keep the last durable version), and the next boot decides from
// what reached the disk whether the batch happened.
func (d *Durable) TrainBatch(pairs []TrainingPair) (TrainingResult, error) {
	if err := d.m.validatePairs(pairs); err != nil {
		return TrainingResult{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return TrainingResult{}, fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	d.recs = d.recs[:0]
	for _, p := range pairs {
		d.recs = append(d.recs, wal.Record{Center: p.Query.Center, Theta: p.Query.Theta, Answer: p.Answer})
	}
	if err := d.log.AppendStart(d.recs); err != nil {
		return TrainingResult{}, d.failLocked(err)
	}
	res, err := d.m.trainBatch(pairs, d.log.Wait)
	if err != nil {
		return TrainingResult{}, d.failLocked(err)
	}
	d.sinceSnap += len(pairs)
	if err := d.maybeRotateLocked(); err != nil {
		return res, d.failLocked(err)
	}
	return res, nil
}

// maybeRotateLocked rotates the log onto a fresh checkpoint once enough
// pairs have accumulated. The caller holds d.mu, so no append can interleave
// between the checkpoint and the segment switch — the invariant Rotate
// requires.
func (d *Durable) maybeRotateLocked() error {
	if d.sinceSnap < d.opts.SnapshotEvery {
		return nil
	}
	return d.rotateLocked()
}

// rotateLocked captures the model once and uses those bytes twice: as the
// snapshot file the log rotates onto, and for the boundary hash.
func (d *Durable) rotateLocked() error {
	d.m.capture(&d.ckpt)
	err := d.log.Rotate(func(w io.Writer) error {
		_, err := w.Write(d.ckpt.b)
		return err
	})
	if err != nil {
		return err
	}
	d.sinceSnap = 0
	d.hasSnap = true
	d.recordBoundaryLocked(d.log.Gen())
	return nil
}

// recordBoundaryLocked stores the canonical hash of the state the caller
// just captured into d.ckpt for the boundary opening gen, pruning the
// oldest entries past boundaryHashKeep.
func (d *Durable) recordBoundaryLocked(gen uint64) {
	d.hashes[gen] = BoundaryHash{Gen: gen, Steps: d.m.Steps(), Hash: d.ckpt.hash()}
	for len(d.hashes) > boundaryHashKeep {
		oldest := gen
		for g := range d.hashes {
			if g < oldest {
				oldest = g
			}
		}
		delete(d.hashes, oldest)
	}
}

// BoundaryHash returns the recorded canonical state hash for the boundary
// opening gen, if this process recorded one (it records at every rotation
// it performs, and at boot when it starts exactly on a boundary).
func (d *Durable) BoundaryHash(gen uint64) (BoundaryHash, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.hashes[gen]
	return h, ok
}

// StateHash returns the model's current step count and canonical state
// hash, atomically with respect to durable training (no pair can land
// between the two reads). A read-only store refuses with ErrReadOnly
// wrapping the cause: after a failed fsync the writer state is ahead of the
// published version, and hashing it would pair the published step count
// with a batch nobody acknowledged. The boundary hashes (BoundaryHash) were
// recorded before the failure and stay readable.
func (d *Durable) StateHash() (steps int, hash string, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return 0, "", fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	d.m.capture(&d.ckpt)
	return d.m.Steps(), d.ckpt.hash(), nil
}

// BootID returns the random token minted when this Durable opened the
// directory. Replication followers pin it to detect primary restarts.
func (d *Durable) BootID() string { return d.bootID }

// Dir returns the data directory.
func (d *Durable) Dir() string { return d.log.Dir() }

// EnsureSnapshot guarantees a loadable snapshot exists for the current
// generation — rotating once if the directory has never snapshotted — and
// returns that generation. Replication bootstrap serves this snapshot; a
// fresh directory would otherwise have nothing to bootstrap from.
func (d *Durable) EnsureSnapshot() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return 0, fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	if d.hasSnap {
		return d.log.Gen(), nil
	}
	if err := d.rotateLocked(); err != nil {
		return 0, d.failLocked(err)
	}
	return d.log.Gen(), nil
}

// SetCapacity durably changes the model's capacity bound at runtime: the
// command is appended to the write-ahead log as an admin record — so
// recovery and replication followers re-apply it at exactly this point in
// the training order — and then applied to the model. The record carries
// the capacity the model will run under, normalized as Model.SetCapacity
// normalizes it (policy name, half-life and merge), so its replay does not
// depend on the model's state.
func (d *Durable) SetCapacity(max int, policy Eviction, merge bool) error {
	if err := checkCapacity(max, policy); err != nil {
		return err
	}
	cc := newCapacity(max, policy, merge)
	rec := wal.Record{Kind: wal.KindCapacity, MaxPrototypes: max, Merge: cc.merge,
		Eviction: cc.policy.Name(), EvictionHalfLife: cc.policy.HalfLife}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	if err := d.log.Append(rec); err != nil {
		return d.failLocked(err)
	}
	if err := d.m.SetCapacity(max, policy, merge); err != nil {
		return err
	}
	d.sinceSnap++
	if err := d.maybeRotateLocked(); err != nil {
		return d.failLocked(err)
	}
	return nil
}

// Snapshot forces a checkpoint + log rotation now, independent of the
// SnapshotEvery cadence. A rotation failure — the tail fsync or the
// snapshot write hitting a sick disk — flips the store read-only like any
// other WAL failure.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	if err := d.rotateLocked(); err != nil {
		return d.failLocked(err)
	}
	return nil
}

// Sync forces every appended pair to stable storage regardless of the sync
// policy. A failed fsync flips the store read-only.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	if err := d.log.Sync(); err != nil {
		return d.failLocked(err)
	}
	return nil
}

// Mirror appends a chunk of the primary's log to the follower's: chunk is
// written verbatim, with one write through the log's writer — so the sync
// policy, fault hook and sticky errors are a primary's — and then recs,
// which the caller decoded from chunk and verified, are applied to the
// model through the ReplayApplier, as recovery applies them. A failure
// flips the store read-only (ErrReadOnly): the mirror's tail is undefined
// and only a fresh bootstrap repairs it. Mirror never rotates; it is for
// a store in the follower role (OpenMirror or InstallSnapshot until
// Promote).
func (d *Durable) Mirror(chunk []byte, recs []wal.Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	if err := d.log.AppendFramed(chunk, len(recs)); err != nil {
		return d.failLocked(err)
	}
	for _, rec := range recs {
		if err := d.follow.Apply(rec); err != nil {
			return d.failLocked(err)
		}
	}
	if err := d.follow.Flush(); err != nil {
		return d.failLocked(err)
	}
	d.sinceSnap += len(recs)
	return nil
}

// Promote turns a follower's mirror into a primary's store: the mirrored
// tail is synced, and from here the store rotates every SnapshotEvery pairs
// and checkpoints on Close, as one Recover opened. A read-only mirror
// refuses.
func (d *Durable) Promote() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	if err := d.log.Sync(); err != nil {
		return d.failLocked(err)
	}
	d.follow = nil
	return nil
}

// Tail returns the cursor at the end of the store's log, where the next
// record lands: a follower resumes fetching its primary's log there.
func (d *Durable) Tail() wal.Cursor {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Tail()
}

// Close shuts the durability layer down cleanly: pairs consumed since the
// last snapshot are checkpointed (so the next Recover replays nothing) and
// the log is closed. Close with pending pairs pays one snapshot write; a
// process killed instead of closed just pays that replay at the next boot.
// A follower's mirror is closed without the checkpoint, which would be a
// generation its primary does not have. A read-only store skips the
// checkpoint — its log must not grow past the failure — closes what it
// can, and reports the root cause.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure != nil {
		_ = d.log.Close()
		return fmt.Errorf("%w: %w", ErrReadOnly, d.failure)
	}
	var rerr error
	if d.sinceSnap > 0 && d.follow == nil {
		rerr = d.rotateLocked()
	}
	if cerr := d.log.Close(); rerr == nil {
		rerr = cerr
	}
	return rerr
}

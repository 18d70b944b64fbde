// Package replica implements the follower side of primary/follower
// replication: it bootstraps a model from the primary's newest checkpoint
// snapshot, then byte-mirrors the primary's write-ahead log into a local
// data directory — same generation numbering, same offsets — applying every
// shipped record through the live training path as it lands. The mirror is
// a core.Durable from boot, opened by the same core.Recover as a primary's
// directory, and its Mirror, Snapshot and Close do the file work; this
// package keeps only the protocol: fetch, verify the chunk, check the
// boundary hash, re-bootstrap, promote. Because the WAL totally orders
// training and replay is deterministic, a caught-up follower is
// bit-identical to the primary (verified with canonical state hashes at
// every snapshot boundary), and promotion hands the same store over as a
// writable primary.
//
// # Cursor invariants
//
// The replication cursor is a (generation, byte offset) pair into the
// primary's log. The primary ships only CRC-valid complete records (the
// wal.TailRead contract), so the cursor always sits on a record boundary
// and the shipped bytes are final — a primary crash can truncate only its
// unshipped torn tail, never bytes a follower already holds. The one
// exception is a primary restart: recovery may truncate an unsynced tail
// that WAS shipped (followers can legitimately run ahead of the primary's
// fsync horizon — that is the safe direction for failover). Every
// replication response therefore carries the primary's boot ID; a change
// forces the follower to re-bootstrap rather than trust a cursor into a
// rewritten log.
//
// # Divergence
//
// Divergence is checked, not assumed: at every rotation boundary the
// follower compares its own canonical state hash (core.Model.StateHash)
// against the hash the primary recorded when it crossed the same boundary.
// A mismatch marks the follower diverged — it keeps serving reads, loudly
// refuses promotion, and re-bootstraps from a fresh snapshot.
package replica

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"llmq/internal/core"
	"llmq/internal/resilience"
	"llmq/internal/wal"
)

// Replication protocol surface, shared by the follower (this package) and
// the primary's HTTP handlers (internal/serve).
const (
	// PathSnapshot streams the newest checkpoint generation (GET).
	PathSnapshot = "/replicate/snapshot"
	// PathWAL long-polls WAL records past a (gen, off) cursor (GET).
	PathWAL = "/replicate/wal"
	// PathHash serves boundary/current canonical state hashes (GET).
	PathHash = "/replicate/hash"
	// PathPromote promotes a follower to writable primary (POST).
	PathPromote = "/promote"

	// HeaderGen carries the snapshot's generation on PathSnapshot.
	HeaderGen = "X-Llmq-Gen"
	// HeaderBoot carries the primary's boot ID on every replication
	// response; a change means the primary restarted.
	HeaderBoot = "X-Llmq-Boot"
	// HeaderSteps carries the primary's current training-step count.
	HeaderSteps = "X-Llmq-Steps"
	// HeaderNextGen and HeaderNextOff carry the cursor after a PathWAL
	// response's chunk.
	HeaderNextGen = "X-Llmq-Next-Gen"
	HeaderNextOff = "X-Llmq-Next-Off"
)

// HashResponse is PathHash's JSON body.
type HashResponse struct {
	// Gen is the boundary generation (0 for the current-state variant).
	Gen uint64 `json:"gen,omitempty"`
	// Steps is the training-step count the hash was taken at.
	Steps int `json:"steps"`
	// Hash is the canonical core.Model.StateHash.
	Hash string `json:"hash"`
}

// Options configures a Replica.
type Options struct {
	// Dir is the local data directory the primary's log is mirrored into.
	Dir string
	// Primary is the primary's base URL (e.g. "http://10.0.0.1:8080").
	Primary string
	// Client issues the replication requests; nil uses a client without a
	// global timeout (requests are bound to Run's context; a global timeout
	// shorter than PollWait would kill every long poll).
	Client *http.Client
	// PollWait is the long-poll window requested from the primary; ≤ 0
	// defaults to 10s.
	PollWait time.Duration
	// ChunkBytes caps the WAL bytes fetched per request; ≤ 0 defaults to
	// wal.DefaultTailChunk.
	ChunkBytes int
	// PromoteAfter auto-promotes the follower once this long has passed
	// without any successful primary contact; 0 disables auto-promotion
	// (explicit Promote only).
	PromoteAfter time.Duration
	// Backoff paces catch-up retries after primary failures.
	Backoff resilience.Backoff
	// WAL is the mirror's sync policy, before and after promotion: shipped
	// chunks reach the local segment through it as a primary's batches do
	// (wal.SyncNone fsyncs only at rotation; a follower crash re-fetches
	// its unsynced tail).
	WAL wal.Options
	// SnapshotEvery is the rotation cadence after promotion; ≤ 0 defaults
	// as core.DurableOptions does. Until then the mirror rotates when the
	// primary does.
	SnapshotEvery int
	// Logf receives replication diagnostics; nil uses the standard logger.
	Logf func(format string, args ...any)
	// OnPromote, when non-nil, is invoked with the new Durable after an
	// automatic (grace-window) promotion. Explicit Promote callers get the
	// Durable as the return value instead.
	OnPromote func(*core.Durable)
}

func (o Options) withDefaults() Options {
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = wal.DefaultTailChunk
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Status is a point-in-time view of the replication state, served on
// /readyz and used by orchestrators to route around stale replicas.
type Status struct {
	// Role is "follower", "promoting" or "primary" (after promotion).
	Role string
	// Bootstrapped reports whether a model is available to serve reads.
	Bootstrapped bool
	// Bootstraps counts snapshot bootstraps (> 1 means re-bootstraps:
	// primary restarts, GCed cursors, or divergence).
	Bootstraps int
	// Steps is the follower model's training-step count.
	Steps int
	// PrimarySteps is the primary's step count as of the last contact.
	PrimarySteps int
	// Lag is max(0, PrimarySteps - Steps) — the replication lag in records.
	Lag int
	// LastContact is the time of the last successful primary response.
	LastContact time.Time
	// Diverged is non-nil when the follower's state hash mismatched the
	// primary's at a boundary; it clears when a re-bootstrap completes.
	Diverged error
	// Cursor is the replication cursor into the primary's log.
	Cursor wal.Cursor
}

// errRebootstrap tags failures that invalidate the local mirror: the
// cursor's generation is gone, the primary restarted, or the mirrored
// state failed verification. Run reacts by wiping and re-bootstrapping, as
// it does to a store that a failed write turned read-only (core.ErrReadOnly).
var errRebootstrap = errors.New("replica: local mirror is invalid")

// errDiverged tags a failed boundary hash comparison; it implies
// errRebootstrap handling plus the sticky refuse-promotion flag.
var errDiverged = errors.New("replica: state diverged from primary")

// Replica mirrors one primary. Create with Open, drive with Run (one
// goroutine), inspect with Status/Model, and promote with Promote.
type Replica struct {
	opts Options
	base string // Primary, normalized

	stopped chan struct{} // closed when Run returns

	mu           sync.Mutex
	runStarted   bool
	cancelRun    context.CancelFunc
	d            *core.Durable // the mirror's store; nil before the first boot
	cur          wal.Cursor
	bootID       string // primary boot ID pinned at bootstrap ("" = unpinned)
	needBoot     bool   // wipe + re-bootstrap before the next fetch
	diverged     error
	promoting    bool
	promoted     bool // d is a primary's store now
	bootstraps   int
	lastContact  time.Time
	primarySteps int
}

// Open validates the options and returns a Replica. No I/O happens until
// Run.
func Open(opts Options) (*Replica, error) {
	if opts.Dir == "" {
		return nil, errors.New("replica: Dir is required")
	}
	if opts.Primary == "" {
		return nil, errors.New("replica: Primary is required")
	}
	opts = opts.withDefaults()
	base := opts.Primary
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Replica{
		opts:    opts,
		base:    base,
		stopped: make(chan struct{}),
	}, nil
}

// Run drives replication until ctx is cancelled or the replica is
// promoted: local-state recovery or snapshot bootstrap, then the streaming
// catch-up loop, re-bootstrapping and retrying with backoff as the primary
// comes and goes. Call it once, from its own goroutine.
func (r *Replica) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.mu.Lock()
	if r.runStarted {
		r.mu.Unlock()
		return errors.New("replica: Run called twice")
	}
	r.runStarted = true
	r.cancelRun = cancel
	r.mu.Unlock()
	defer close(r.stopped)

	failures := 0
	for ctx.Err() == nil && !r.isPromoting() {
		err := r.step(ctx)
		if err == nil {
			failures = 0
			continue
		}
		if ctx.Err() != nil || r.isPromoting() {
			break
		}
		if errors.Is(err, errDiverged) {
			// The loud part of "refuses promotion loudly": divergence is an
			// invariant violation, not an operational hiccup.
			r.opts.Logf("replica: DIVERGED from primary %s: %v — refusing promotion and re-bootstrapping", r.base, err)
		} else {
			r.opts.Logf("replica: %v", err)
		}
		if errors.Is(err, errRebootstrap) || errors.Is(err, core.ErrReadOnly) {
			r.mu.Lock()
			r.needBoot = true
			r.mu.Unlock()
		}
		failures++
		if r.shouldAutoPromote() {
			d, perr := r.autoPromote()
			if perr != nil {
				r.opts.Logf("replica: auto-promotion failed: %v", perr)
				return perr
			}
			r.opts.Logf("replica: auto-promoted to primary after %v without contact with %s", r.opts.PromoteAfter, r.base)
			if r.opts.OnPromote != nil {
				r.opts.OnPromote(d)
			}
			return nil
		}
		attempt := failures - 1
		if attempt > 6 {
			attempt = 6
		}
		if serr := resilience.Sleep(ctx, r.opts.Backoff.Delay(attempt)); serr != nil {
			break
		}
	}
	return ctx.Err()
}

// step performs one unit of replication work: recover local state, or
// bootstrap, or fetch-and-apply one WAL chunk.
func (r *Replica) step(ctx context.Context) error {
	r.mu.Lock()
	d, needBoot := r.d, r.needBoot
	r.mu.Unlock()
	if d == nil && !needBoot {
		// First run over this directory: a previous incarnation's mirror
		// resumes without re-shipping the snapshot.
		if err := r.recoverMirror(); err != nil {
			if !errors.Is(err, errNoLocalState) {
				r.opts.Logf("replica: local mirror unusable (%v); re-bootstrapping", err)
			}
			r.mu.Lock()
			r.needBoot = true
			r.mu.Unlock()
		}
		return nil
	}
	if needBoot {
		if err := r.bootstrap(ctx); err != nil {
			return fmt.Errorf("bootstrap from %s: %w", r.base, err)
		}
		return nil
	}
	return r.fetchChunk(ctx)
}

// Model returns the follower's live model, or nil before the first
// bootstrap completes. The pointer changes on re-bootstrap — callers
// serving requests should call this per request, not cache it.
func (r *Replica) Model() *core.Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.d == nil {
		return nil
	}
	return r.d.Model()
}

// Primary returns the primary's base URL this replica follows.
func (r *Replica) Primary() string { return r.base }

// Durable returns the promoted Durable, or nil while still a follower.
func (r *Replica) Durable() *core.Durable {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.promoted {
		return nil
	}
	return r.d
}

// Status returns the current replication status.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Role:         "follower",
		Bootstrapped: r.d != nil,
		Bootstraps:   r.bootstraps,
		PrimarySteps: r.primarySteps,
		LastContact:  r.lastContact,
		Diverged:     r.diverged,
		Cursor:       r.cur,
	}
	if r.d != nil {
		st.Steps = r.d.Model().Steps()
	}
	if st.Lag = st.PrimarySteps - st.Steps; st.Lag < 0 {
		st.Lag = 0
	}
	switch {
	case r.promoted:
		st.Role = "primary"
	case r.promoting:
		st.Role = "promoting"
	}
	return st
}

func (r *Replica) isPromoting() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoting
}

func (r *Replica) shouldAutoPromote() bool {
	if r.opts.PromoteAfter <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.d != nil && r.diverged == nil && !r.lastContact.IsZero() &&
		time.Since(r.lastContact) > r.opts.PromoteAfter
}

// autoPromote is the grace-window promotion, called from inside Run (no
// concurrent applier, so no need to wait for the loop to stop).
func (r *Replica) autoPromote() (*core.Durable, error) {
	r.mu.Lock()
	r.promoting = true
	r.mu.Unlock()
	return r.finalizePromotion()
}

// Promote syncs the follower's mirror and hands its store over as a
// writable primary over the mirrored directory, returning the core.Durable
// to train through. A diverged follower refuses, descriptively; so does one that
// has not bootstrapped. Promote stops the replication loop first, so no
// shipped record can interleave with the hand-off.
func (r *Replica) Promote() (*core.Durable, error) {
	r.mu.Lock()
	if r.promoted {
		d := r.d
		r.mu.Unlock()
		return d, nil
	}
	if err := r.promotableLocked(); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.promoting = true
	cancel := r.cancelRun
	started := r.runStarted
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if started {
		<-r.stopped
	}
	return r.finalizePromotion()
}

// promotableLocked is the promotion gate. Caller holds r.mu.
func (r *Replica) promotableLocked() error {
	if r.diverged != nil {
		return fmt.Errorf("replica: refusing promotion: %w (a re-bootstrap must complete first)", r.diverged)
	}
	if r.d == nil {
		return errors.New("replica: refusing promotion: no model yet (bootstrap has not completed)")
	}
	return nil
}

// finalizePromotion promotes the mirror's store in place. The replication
// loop must be stopped (or be the caller).
func (r *Replica) finalizePromotion() (*core.Durable, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return r.d, nil
	}
	if err := r.promotableLocked(); err != nil {
		r.promoting = false
		return nil, err
	}
	if err := r.d.Promote(); err != nil {
		return nil, fmt.Errorf("replica: promote mirror: %w", err)
	}
	r.promoted = true
	return r.d, nil
}

// Close shuts a non-promoted replica down: the loop is stopped and the
// mirror's store closed without a checkpoint, so a restart resumes from the
// mirror. After promotion, close the Durable instead.
func (r *Replica) Close() error {
	r.mu.Lock()
	cancel := r.cancelRun
	started := r.runStarted
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if started {
		<-r.stopped
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.d == nil || r.promoted {
		return nil
	}
	return r.d.Close()
}

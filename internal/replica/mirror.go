package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"llmq/internal/core"
	"llmq/internal/resilience"
	"llmq/internal/wal"
)

// errNoLocalState means the local directory holds no snapshot to recover
// from (a fresh follower) — bootstrap from the primary's instead. Not an
// error condition.
var errNoLocalState = errors.New("replica: no local mirror")

// recoverMirror resumes replication from a mirror a previous incarnation
// left behind. A directory with a snapshot opens through core.Recover, as a
// primary's directory does after a crash: the newest loadable snapshot, the
// contiguous segments above it, a torn tail truncated (the chunk the
// follower crashed in the middle of is re-fetched). A snapshot that does
// not load falls back to the previous generation; a mirror never holds
// segment 0, so with none loadable Recover fails and the caller
// re-bootstraps.
func (r *Replica) recoverMirror() error {
	man, err := wal.List(r.opts.Dir)
	if err != nil {
		return err
	}
	if len(man.Snapshots) == 0 {
		return errNoLocalState
	}
	d, cur, err := r.open()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.d = d
	r.cur = cur
	r.bootID = "" // pinned from the next primary response
	r.mu.Unlock()
	r.opts.Logf("replica: resumed local mirror of %s at %v (%d steps)", r.base, cur, d.Model().Steps())
	return nil
}

// open recovers the mirror directory as a follower's store and returns it
// with the cursor at the end of its newest segment.
func (r *Replica) open() (*core.Durable, wal.Cursor, error) {
	// The config is unused: a mirror always holds a snapshot, which carries
	// its own.
	d, err := core.Recover(r.opts.Dir, core.Config{}, core.DurableOptions{
		WAL:           r.opts.WAL,
		SnapshotEvery: r.opts.SnapshotEvery,
		Logf:          r.opts.Logf,
	})
	if err != nil {
		return nil, wal.Cursor{}, err
	}
	d.Follow()
	gen := d.Gen()
	fi, err := os.Stat(wal.SegmentPath(r.opts.Dir, gen))
	if err != nil {
		_ = d.Close()
		return nil, wal.Cursor{}, err
	}
	return d, wal.Cursor{Gen: gen, Off: fi.Size()}, nil
}

// bootstrap wipes the local mirror and rebuilds it from the primary's
// newest checkpoint snapshot. The old store is closed first, but its model
// keeps serving stale reads until the new one is ready — only the swap at
// the end is visible to readers.
func (r *Replica) bootstrap(ctx context.Context) error {
	r.mu.Lock()
	old := r.d
	r.mu.Unlock()
	if old != nil {
		_ = old.Close() // a mirror closes without a checkpoint; its files go next
	}
	if err := r.wipe(); err != nil {
		return err
	}
	resp, err := resilience.Do(ctx, r.opts.Client, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, r.base+PathSnapshot, nil)
	}, r.opts.Backoff)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: %s", httpError(resp))
	}
	gen, err := strconv.ParseUint(resp.Header.Get(HeaderGen), 10, 64)
	if err != nil {
		return fmt.Errorf("snapshot: bad %s header %q", HeaderGen, resp.Header.Get(HeaderGen))
	}
	boot := resp.Header.Get(HeaderBoot)
	// Mirror first, recover second: the local file must hold exactly the
	// bytes the primary served, and a store that Recover opens from it —
	// loading it as every recovery does, so a Save file is refused — proves
	// the directory will recover after a follower crash.
	if err := wal.WriteFileAtomic(wal.SnapshotPath(r.opts.Dir, gen), func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	}); err != nil {
		return err
	}
	d, cur, err := r.open()
	if err != nil {
		return fmt.Errorf("shipped snapshot %d does not load: %w", gen, err)
	}
	r.mu.Lock()
	r.d = d
	r.cur = cur
	r.bootID = boot
	r.needBoot = false
	r.diverged = nil
	r.bootstraps++
	r.mu.Unlock()
	r.touch(resp)
	r.opts.Logf("replica: bootstrapped from %s at generation %d (%d steps)", r.base, gen, d.Model().Steps())
	// Opportunistic divergence check right at the boundary the snapshot
	// defines; a mismatch here means the snapshot itself is suspect.
	return r.verifyBoundary(ctx, gen)
}

// fetchChunk long-polls the primary for bytes past the cursor and applies
// whatever arrives. A bare generation bump (data-less cursor move) is the
// rotation signal.
func (r *Replica) fetchChunk(ctx context.Context) error {
	r.mu.Lock()
	cur := r.cur
	r.mu.Unlock()
	url := fmt.Sprintf("%s%s?gen=%d&off=%d&wait=%d&max=%d",
		r.base, PathWAL, cur.Gen, cur.Off, r.opts.PollWait.Milliseconds(), r.opts.ChunkBytes)
	resp, err := resilience.Do(ctx, r.opts.Client, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}, r.opts.Backoff)
	if err != nil {
		return fmt.Errorf("fetch %v: %w", cur, err)
	}
	defer resp.Body.Close()
	if boot := resp.Header.Get(HeaderBoot); boot != "" {
		r.mu.Lock()
		pinned := r.bootID
		if pinned == "" {
			r.bootID = boot
			pinned = boot
		}
		r.mu.Unlock()
		if boot != pinned {
			// A restarted primary may have truncated an unsynced tail we
			// already mirrored; cursors into the old log are meaningless.
			return fmt.Errorf("%w: primary restarted (boot id %s, was %s)", errRebootstrap, boot, pinned)
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent: // poll window expired with nothing new
		r.touch(resp)
		return nil
	case http.StatusGone:
		return fmt.Errorf("%w: cursor %v is gone from the primary", errRebootstrap, cur)
	default:
		return fmt.Errorf("fetch %v: %s", cur, httpError(resp))
	}
	r.touch(resp)
	next, err := parseNextCursor(resp)
	if err != nil {
		return fmt.Errorf("fetch %v: %w", cur, err)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, int64(r.opts.ChunkBytes)+int64(wal.DefaultTailChunk)))
	if err != nil {
		return fmt.Errorf("fetch %v: read chunk: %w", cur, err)
	}
	if len(data) == 0 {
		switch {
		case next.Gen == cur.Gen+1 && next.Off == 0:
			return r.rotateLocal(ctx, next.Gen)
		case next == cur:
			return nil
		default:
			return fmt.Errorf("fetch %v: cursor moved to %v without data", cur, next)
		}
	}
	if next.Gen != cur.Gen || next.Off != cur.Off+int64(len(data)) {
		return fmt.Errorf("fetch %v: %d bytes do not land on advertised cursor %v", cur, len(data), next)
	}
	return r.applyChunk(data, next)
}

// applyChunk validates one shipped chunk and hands it to the store's
// Mirror, which writes it to the local segment before its records train the
// model (a crash between the two replays them from disk). No byte reaches
// the segment before the whole chunk scans as complete CRC-clean records, so
// a mid-chunk disconnect leaves no trace.
func (r *Replica) applyChunk(data []byte, next wal.Cursor) error {
	sc := wal.NewScanner(bytes.NewReader(data))
	var recs []wal.Record
	for sc.Next() {
		recs = append(recs, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("shipped chunk does not scan: %w", err)
	}
	if sc.ValidSize() != int64(len(data)) {
		return fmt.Errorf("shipped chunk is torn: %d of %d bytes scan", sc.ValidSize(), len(data))
	}
	r.mu.Lock()
	d := r.d
	r.mu.Unlock()
	if err := d.Mirror(data, recs); err != nil {
		return fmt.Errorf("mirror chunk: %w", err)
	}
	r.mu.Lock()
	r.cur = next
	r.mu.Unlock()
	return nil
}

// rotateLocal follows the primary's rotation: verify the state hash against
// the boundary hash the primary recorded, then rotate the mirror onto its
// own checkpoint of the same generation, as the primary's store did.
func (r *Replica) rotateLocal(ctx context.Context, newGen uint64) error {
	// Verify before checkpointing: a diverged state must not become the
	// snapshot a restart would silently resume from.
	if err := r.verifyBoundary(ctx, newGen); err != nil {
		return err
	}
	r.mu.Lock()
	d := r.d
	r.mu.Unlock()
	if err := d.Snapshot(); err != nil {
		return fmt.Errorf("mirror snapshot %d: %w", newGen, err)
	}
	r.mu.Lock()
	r.cur = wal.Cursor{Gen: newGen}
	r.mu.Unlock()
	return nil
}

// verifyBoundary compares the follower's canonical state hash against the
// hash the primary recorded when it crossed the same snapshot boundary. A
// primary that cannot answer (down, or the boundary aged out of its
// history) skips the check — it is opportunistic; the rotation cadence
// guarantees the next comparable boundary is near. A mismatch is the one
// non-skippable outcome: it marks the replica diverged.
func (r *Replica) verifyBoundary(ctx context.Context, gen uint64) error {
	url := fmt.Sprintf("%s%s?gen=%d", r.base, PathHash, gen)
	resp, err := resilience.Do(ctx, r.opts.Client, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}, r.opts.Backoff)
	if err != nil {
		r.opts.Logf("replica: boundary %d hash check skipped: %v", gen, err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil // primary has no hash for this boundary
	}
	if resp.StatusCode != http.StatusOK {
		r.opts.Logf("replica: boundary %d hash check skipped: %s", gen, httpError(resp))
		return nil
	}
	var hr HashResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hr); err != nil {
		r.opts.Logf("replica: boundary %d hash check skipped: bad response: %v", gen, err)
		return nil
	}
	r.mu.Lock()
	m := r.d.Model()
	r.mu.Unlock()
	steps := m.Steps()
	hash, err := m.StateHash()
	if err != nil {
		return fmt.Errorf("state hash: %w", err)
	}
	var div error
	switch {
	case hr.Steps != steps:
		div = fmt.Errorf("%w: %d steps vs primary's %d at generation %d", errDiverged, steps, hr.Steps, gen)
	case hr.Hash != hash:
		div = fmt.Errorf("%w: state hash %s vs primary's %s at generation %d (%d steps)", errDiverged, hash, hr.Hash, gen, steps)
	default:
		return nil
	}
	r.mu.Lock()
	r.diverged = div
	r.mu.Unlock()
	return fmt.Errorf("%w: %w", errRebootstrap, div)
}

// wipe clears the mirror's files (and stale temp files) ahead of a fresh
// bootstrap. Only WAL-owned names are touched.
func (r *Replica) wipe() error {
	ents, err := os.ReadDir(r.opts.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return os.MkdirAll(r.opts.Dir, 0o755)
		}
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(r.opts.Dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// touch records a successful primary contact and its step count.
func (r *Replica) touch(resp *http.Response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastContact = time.Now()
	if s := resp.Header.Get(HeaderSteps); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			r.primarySteps = n
		}
	}
}

func parseNextCursor(resp *http.Response) (wal.Cursor, error) {
	gen, err := strconv.ParseUint(resp.Header.Get(HeaderNextGen), 10, 64)
	if err != nil {
		return wal.Cursor{}, fmt.Errorf("bad %s header %q", HeaderNextGen, resp.Header.Get(HeaderNextGen))
	}
	off, err := strconv.ParseInt(resp.Header.Get(HeaderNextOff), 10, 64)
	if err != nil || off < 0 {
		return wal.Cursor{}, fmt.Errorf("bad %s header %q", HeaderNextOff, resp.Header.Get(HeaderNextOff))
	}
	return wal.Cursor{Gen: gen, Off: off}, nil
}

// httpError summarizes a non-2xx replication response.
func httpError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		return fmt.Sprintf("HTTP %d", resp.StatusCode)
	}
	return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, msg)
}

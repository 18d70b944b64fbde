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

// errNoLocalState means the local directory holds no usable mirror (fresh
// follower) — bootstrap from a snapshot instead. Not an error condition.
var errNoLocalState = errors.New("replica: no local mirror")

// openLocal resumes replication from a mirror a previous incarnation left
// behind: load the newest local snapshot, replay the contiguous segments
// above it (truncating a torn tail on the newest — the chunk the follower
// crashed in the middle of will be re-fetched), and park the cursor at the
// end of the valid bytes. The snapshot loads as Recover loads one
// (core.LoadSnapshot), so a Save file planted in its place is refused. Any
// inconsistency is reported; the caller falls back to a fresh bootstrap.
func (r *Replica) openLocal() error {
	dir := r.opts.Dir
	man, err := wal.List(dir)
	if err != nil {
		return err
	}
	// This boot path owns the directory exclusively, so litter from a
	// checkpoint write the previous incarnation crashed in is safe to clear.
	if err := wal.RemoveTemp(dir); err != nil {
		return err
	}
	if len(man.Snapshots) == 0 {
		return errNoLocalState
	}
	// Newest snapshot only: unlike primary recovery there is no reason to
	// limp along on a fallback generation when a fresh snapshot is one
	// request away.
	base := man.Snapshots[len(man.Snapshots)-1]
	f, err := wal.OpenSnapshot(dir, base)
	if err != nil {
		return err
	}
	m, err := core.LoadSnapshot(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("local snapshot %d: %w", base, err)
	}
	applier := core.NewReplayApplier(m)
	cur := wal.Cursor{Gen: base}
	sinceSnap := 0
	var segs []uint64
	for _, g := range man.Segments {
		if g >= base {
			segs = append(segs, g)
		}
	}
	for i, g := range segs {
		if g != base+uint64(i) {
			return fmt.Errorf("segment gap: generation %d missing", base+uint64(i))
		}
		path := wal.SegmentPath(dir, g)
		n, corrupt, err := wal.Replay(path, applier.Apply)
		if err != nil {
			return fmt.Errorf("replay local segment %d: %w", g, err)
		}
		last := i == len(segs)-1
		if corrupt != nil {
			if !last {
				// A sealed mirror segment can only be torn by storage loss;
				// the primary still has the bytes, so re-bootstrap.
				return fmt.Errorf("sealed local segment %d: %s", g, corrupt)
			}
			if err := wal.TruncateTorn(path, corrupt.Offset); err != nil {
				return err
			}
		}
		if last {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			cur = wal.Cursor{Gen: g, Off: fi.Size()}
			sinceSnap = n
		}
	}
	if err := applier.Flush(); err != nil {
		return fmt.Errorf("replay local mirror: %w", err)
	}
	seg, err := openSegment(dir, cur.Gen)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.model = m
	r.applier = applier
	r.cur = cur
	r.seg = seg
	r.sinceSnap = sinceSnap
	r.bootID = "" // pinned from the next primary response
	r.mu.Unlock()
	r.opts.Logf("replica: resumed local mirror of %s at %v (%d steps)", r.base, cur, m.Steps())
	return nil
}

// bootstrap wipes the local mirror and rebuilds it from the primary's
// newest checkpoint snapshot. The in-memory model (if any) keeps serving
// stale reads until the new one is ready — only the swap at the end is
// visible to readers.
func (r *Replica) bootstrap(ctx context.Context) error {
	r.closeSeg()
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
	// Mirror first, load second: the local file must hold exactly the bytes
	// the primary served, and a model that loads from it — through the
	// check Recover applies, so a Save file is refused — proves the
	// directory will recover after a follower crash.
	path := wal.SnapshotPath(r.opts.Dir, gen)
	if err := wal.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	}); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	m, err := core.LoadSnapshot(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("shipped snapshot %d does not load: %w", gen, err)
	}
	seg, err := openSegment(r.opts.Dir, gen)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.model = m
	r.applier = core.NewReplayApplier(m)
	r.cur = wal.Cursor{Gen: gen}
	r.seg = seg
	r.sinceSnap = 0
	r.bootID = boot
	r.needBoot = false
	r.diverged = nil
	r.bootstraps++
	r.mu.Unlock()
	r.touch(resp)
	r.opts.Logf("replica: bootstrapped from %s at generation %d (%d steps)", r.base, gen, m.Steps())
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

// applyChunk validates, mirrors and applies one shipped chunk, in that
// order: no byte reaches the local segment before the whole chunk scans as
// complete CRC-clean records (a mid-chunk disconnect therefore leaves no
// trace), and no record trains the model before it is in the mirror (a
// crash between the two replays it from disk).
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
	defer r.mu.Unlock()
	if r.seg == nil {
		return errors.New("replica: no open mirror segment")
	}
	if _, err := r.seg.Write(data); err != nil {
		return fmt.Errorf("mirror chunk: %w", err)
	}
	for _, rec := range recs {
		if err := r.applier.Apply(rec); err != nil {
			return fmt.Errorf("apply shipped record: %w", err)
		}
	}
	if err := r.applier.Flush(); err != nil {
		return fmt.Errorf("apply shipped chunk: %w", err)
	}
	r.cur = next
	r.sinceSnap += len(recs)
	return nil
}

// rotateLocal mirrors the primary's rotation: seal the local tail segment
// (fsync + close — the mirror's durability point), verify the state hash
// against the boundary hash the primary recorded, publish the follower's
// own checkpoint snapshot, open the next segment, and GC old generations.
func (r *Replica) rotateLocal(ctx context.Context, newGen uint64) error {
	r.mu.Lock()
	if err := r.applier.Flush(); err != nil {
		r.mu.Unlock()
		return err
	}
	if r.seg != nil {
		if err := r.seg.Sync(); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("seal mirror segment: %w", err)
		}
		if err := r.seg.Close(); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("seal mirror segment: %w", err)
		}
		r.seg = nil
	}
	m := r.model
	r.mu.Unlock()
	// Verify before checkpointing: a diverged state must not become the
	// snapshot a restart would silently resume from.
	if err := r.verifyBoundary(ctx, newGen); err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(wal.SnapshotPath(r.opts.Dir, newGen), m.Checkpoint); err != nil {
		return fmt.Errorf("mirror snapshot %d: %w", newGen, err)
	}
	seg, err := openSegment(r.opts.Dir, newGen)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.seg = seg
	r.cur = wal.Cursor{Gen: newGen}
	r.sinceSnap = 0
	r.mu.Unlock()
	r.gc(newGen)
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
	m := r.model
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

// gc removes mirror generations at least two behind, matching the
// primary's retention.
func (r *Replica) gc(newGen uint64) {
	if newGen >= 2 {
		wal.RemoveThrough(r.opts.Dir, newGen-2)
	}
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

func (r *Replica) closeSeg() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seg != nil {
		_ = r.seg.Close()
		r.seg = nil
	}
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

func openSegment(dir string, gen uint64) (*os.File, error) {
	f, err := os.OpenFile(wal.SegmentPath(dir, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open mirror segment: %w", err)
	}
	return f, nil
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

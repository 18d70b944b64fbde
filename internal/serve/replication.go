package serve

// Replication endpoints — the primary side of internal/replica's
// protocol, plus the promotion trigger on the follower side:
//
//	GET  /replicate/snapshot          → stream the newest checkpoint
//	                                    generation (X-Llmq-Gen names it)
//	GET  /replicate/wal?gen=G&off=O   → long-poll WAL records past the
//	                                    (generation, offset) cursor;
//	                                    200 carries either chunk bytes or a
//	                                    bare generation bump (rotation),
//	                                    204 an expired poll window, 410 a
//	                                    GCed cursor (re-bootstrap)
//	GET  /replicate/hash[?gen=G]      → the canonical state hash the
//	                                    primary recorded at boundary G, or
//	                                    the live state's hash without gen
//	POST /promote                     → turn this follower into a writable
//	                                    primary (refused while diverged)
//
// Every response carries X-Llmq-Boot (the store's boot ID — a change means
// the log identity changed and shipped cursors are void) and X-Llmq-Steps
// (the primary's current training-step count, which is what followers
// compute their lag against). The replication endpoints require a durable
// store: a memory-only server has no log to ship and answers 409. A
// promoted follower serves them too — it has a real Durable by then — so
// surviving followers can re-target it.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"llmq/internal/core"
	"llmq/internal/replica"
	"llmq/internal/wal"
)

const (
	// maxPollWait caps a /replicate/wal long-poll window.
	maxPollWait = 30 * time.Second
	// maxShipChunk caps the bytes one /replicate/wal response may carry.
	maxShipChunk = 4 << 20
	// shipPollInterval is how often a long poll re-reads the tail while
	// waiting for records.
	shipPollInterval = 15 * time.Millisecond
)

// replicationSource returns the durable store whose log this instance can
// ship, writing a 409 and returning nil when there is none.
func (s *Server) replicationSource(w http.ResponseWriter) *core.Durable {
	d := s.backend.pair().durable()
	if d == nil {
		writeError(w, http.StatusConflict,
			errors.New("replication requires a durable store (serve -data-dir); this instance has none"))
		return nil
	}
	return d
}

// stampReplication sets the headers every replication response carries.
func stampReplication(w http.ResponseWriter, d *core.Durable) {
	w.Header().Set(replica.HeaderBoot, d.BootID())
	w.Header().Set(replica.HeaderSteps, strconv.Itoa(d.Model().Steps()))
}

func (s *Server) handleReplicateSnapshot(w http.ResponseWriter, r *http.Request) {
	d := s.replicationSource(w)
	if d == nil {
		return
	}
	gen, err := d.EnsureSnapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("snapshot: %w", err))
		return
	}
	// Snapshot files are immutable once published (written atomically,
	// then only ever GCed), so an open handle streams a consistent
	// generation even if the store rotates or GCs it mid-transfer.
	f, err := os.Open(wal.SnapshotPath(d.Dir(), gen))
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("snapshot %d: %w", gen, err))
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("snapshot %d: %w", gen, err))
		return
	}
	stampReplication(w, d)
	w.Header().Set(replica.HeaderGen, strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

// handleReplicateWAL ships WAL bytes past a cursor. The contract mirrors
// wal.TailRead's: a 200 carries either complete CRC-valid records (the
// cursor advances by exactly the body length) or, when the cursor's
// generation is sealed and consumed, a bare bump to the next generation
// with an empty body — never both, so a follower can treat "data" and
// "rotate" as distinct events. 204 means the poll window expired with
// nothing new; 410 means the cursor's generation was GCed and the follower
// must re-bootstrap.
func (s *Server) handleReplicateWAL(w http.ResponseWriter, r *http.Request) {
	d := s.replicationSource(w)
	if d == nil {
		return
	}
	q := r.URL.Query()
	gen, genErr := strconv.ParseUint(q.Get("gen"), 10, 64)
	off, offErr := strconv.ParseInt(q.Get("off"), 10, 64)
	if genErr != nil || offErr != nil || off < 0 {
		writeError(w, http.StatusBadRequest, errors.New("gen and off query parameters are required non-negative integers"))
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		ms, err := strconv.Atoi(ws)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, errors.New("wait must be a non-negative integer of milliseconds"))
			return
		}
		if wait = time.Duration(ms) * time.Millisecond; wait > maxPollWait {
			wait = maxPollWait
		}
	}
	max := wal.DefaultTailChunk
	if ms := q.Get("max"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, errors.New("max must be a positive integer of bytes"))
			return
		}
		if max = n; max > maxShipChunk {
			max = maxShipChunk
		}
	}
	cur := wal.Cursor{Gen: gen, Off: off}
	deadline := time.Now().Add(wait)
	for {
		chunk, err := wal.TailRead(d.Dir(), cur, max)
		if err != nil {
			stampReplication(w, d)
			if errors.Is(err, wal.ErrCursorGone) {
				writeError(w, http.StatusGone, err)
			} else {
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		if len(chunk.Data) > 0 || chunk.Next != cur {
			stampReplication(w, d)
			w.Header().Set(replica.HeaderNextGen, strconv.FormatUint(chunk.Next.Gen, 10))
			w.Header().Set(replica.HeaderNextOff, strconv.FormatInt(chunk.Next.Off, 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(chunk.Data)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(chunk.Data)
			return
		}
		if r.Context().Err() != nil || !time.Now().Before(deadline) {
			stampReplication(w, d)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		interval := shipPollInterval
		if rem := time.Until(deadline); rem < interval {
			interval = rem
		}
		select {
		case <-r.Context().Done():
		case <-time.After(interval):
		}
	}
}

func (s *Server) handleReplicateHash(w http.ResponseWriter, r *http.Request) {
	d := s.replicationSource(w)
	if d == nil {
		return
	}
	stampReplication(w, d)
	if gs := r.URL.Query().Get("gen"); gs != "" {
		gen, err := strconv.ParseUint(gs, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("gen must be a non-negative integer"))
			return
		}
		bh, ok := d.BoundaryHash(gen)
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("no boundary hash recorded for generation %d (not a boundary this process crossed, or aged out)", gen))
			return
		}
		writeJSON(w, http.StatusOK, replica.HashResponse{Gen: bh.Gen, Steps: bh.Steps, Hash: bh.Hash})
		return
	}
	steps, hash, err := d.StateHash()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("state hash: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, replica.HashResponse{Steps: steps, Hash: hash})
}

// handlePromote turns a follower into a writable primary in place: the
// replication loop is stopped, the mirrored log sealed and resumed as this
// instance's durable store. Idempotent once promoted. A primary that was
// never a follower answers 409; a diverged or not-yet-bootstrapped
// follower refuses with the replica's descriptive error.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	if err := s.backend.promote(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Status: "ready", Role: "primary"})
}

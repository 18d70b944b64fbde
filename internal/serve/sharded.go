package serve

import (
	"errors"
	"net/http"

	"llmq/internal/core"
	"llmq/internal/shard"
)

// The shard wire protocol (/shard/scan, /shard/train, /shard/meta): every
// server whose backend has a model in this process speaks it, so any such
// instance can be a shard behind a remote router. The handlers are HTTP
// shaping around the backend's shard.Local.

// handleShardScan answers POST /shard/scan: one shard's raw fusion terms
// for a query, from the model's current published version. Scans are
// query-class work and admit against the query semaphore.
func (s *Server) handleShardScan(w http.ResponseWriter, r *http.Request) {
	l := s.backend.pair()
	if l.Local == nil {
		writeError(w, http.StatusConflict, errors.New("no model loaded to scan"))
		return
	}
	var req shard.ScanRequest
	if status, err := decodeBody(w, r, &req); status != 0 {
		writeError(w, status, err)
		return
	}
	q, err := core.NewQuery(req.Center, req.Theta)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.admitQuery.Acquire(r.Context(), 1); err != nil {
		s.shedQuery(w, r, err)
		return
	}
	defer s.admitQuery.Release(1)
	res, err := l.Scan(r.Context(), q, req.At, req.Models)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrDimension) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleShardMeta answers GET /shard/meta: the shard's state and routing
// bound. A follower that has not bootstrapped yet answers 503 so a priming
// router retries.
func (s *Server) handleShardMeta(w http.ResponseWriter, _ *http.Request) {
	l := s.backend.pair()
	if l.Local == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("no model loaded yet"))
		return
	}
	writeJSON(w, http.StatusOK, l.Stats())
}

// handleShardTrain answers POST /shard/train: the shard-protocol twin of
// /train (the wire pair shape is the same), training the local model and
// returning the routing bound alongside the outcome so the router's cached
// bound follows the prototypes it just created.
func (s *Server) handleShardTrain(w http.ResponseWriter, r *http.Request) {
	l := s.backend.pair()
	st, _, _, ok := s.ingest(w, r, l)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, shard.TrainShardResponse{TrainStats: st, MaxTheta: l.MaxTheta()})
}

// ShardReady is one shard's readiness inside a sharded /readyz body.
type ShardReady struct {
	ID     int    `json:"id"`
	Status string `json:"status"`
	Cause  string `json:"cause,omitempty"`
}

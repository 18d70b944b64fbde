// Package serve exposes a trained LLM model and the exact executor of one
// relation as an HTTP analytics service — the deployment shape sketched in
// the paper's Figure 2, where the trained model sits between the analyst
// tools and the DBMS and answers queries without forwarding them to the
// engine.
//
// Endpoints:
//
//	POST /query       {"sql": "SELECT APPROX AVG(u) FROM t WITHIN 0.1 OF (0.5, 0.5)"}
//	                  → the parsed statement's answer (model-based for APPROX,
//	                    exact otherwise)
//	POST /query/batch {"sql": ["...", "..."]}
//	                  → a streaming NDJSON response: one result frame per
//	                    statement in statement order, each flushed as soon as
//	                    its prefix of the sheet has been answered, then a
//	                    trailer frame — statements evaluate concurrently over
//	                    a bounded worker pool (the model is safe for
//	                    concurrent reads, and the exact executor never mutates
//	                    the table), and a client that hangs up mid-stream
//	                    cancels the rest of the sheet and frees its admission
//	                    weight immediately (see BatchFrame / ReadBatchStream)
//	POST /train       {"pairs": [{"center": [0.5, 0.5], "theta": 0.1, "answer": 1.2}]}
//	                  → ingest training pairs into the backend (see Backends)
//	GET  /model       → model metadata (K, steps, convergence, vigilance)
//	GET  /healthz     → liveness probe (is the process up at all)
//	GET  /readyz      → readiness probe: ready / overloaded / read-only /
//	                    recovering, so an orchestrator can stop routing
//	                    traffic to a degraded instance without killing it
//
// The handler is a plain http.Handler so it can be mounted into any mux.
// Individual requests already run on separate goroutines under net/http;
// the batch endpoint additionally parallelizes within one request, so a
// single analyst submitting a query sheet saturates the cores too. A
// single /query statement runs alone on the reader it pinned; a client
// with many statements sends them as one /query/batch sheet.
//
// # Backends
//
// What APPROX statements are answered from, and /train pairs are trained
// into, is one backend chosen by the constructor; the handlers are the same
// for all three:
//
//   - local (New, NewDurable): one model in this process. With a durable
//     store each /train batch is WAL-logged — one write, its fsync
//     overlapped with the model update — before it is published or
//     acknowledged, so ingested traffic survives a crash; without one,
//     training is volatile.
//   - follower (NewFollower): a replica of a remote primary. Reads answer
//     from the replicated model, /train is refused with 421 naming the
//     primary, and POST /promote turns it into a durable local backend.
//   - sharded (NewSharded): a shard.Sharded set. Queries scatter to the
//     shards owning the query's region and gather the union model's answer;
//     /train partitions the pairs across the shards.
//
// A backend with a model in this process additionally speaks the shard wire
// protocol (/shard/scan, /shard/train, /shard/meta), so it can be a shard
// behind a remote router, and — when durable — the replication protocol
// (/replicate/*), so followers can mirror it. docs/ARCHITECTURE.md tabulates
// which backend answers which endpoint, and with what status when it cannot.
//
// # Overload behaviour
//
// The server survives flood, stall and disk failure by shedding instead of
// queueing (see Limits):
//
//   - Admission control: a weighted semaphore per endpoint class — query
//     (/query and /query/batch share it, a batch sheet costing its
//     statement count) and train (costing the pair count). A request that
//     cannot be admitted within the wait budget gets 429 + Retry-After.
//   - Deadlines: a query request's QueryTimeout runs from its entry and is
//     armed where it can be observed — on a sheet's context at once, on a
//     single statement's before a context-bound reader, a queued admission
//     or an EXACT scan; the exact executors and batch pools observe it
//     (exec.*Ctx), so an admitted request completes or dies by its
//     deadline — never later.
//   - Brownout: while the admission queue is saturated, EXACT statements —
//     the expensive relation scans — are shed first (503) while APPROX
//     statements keep answering from the model's lock-free read path. With
//     Limits.DegradeExact, EXACT-eligible statements are instead answered
//     from the model with "degraded": true — the paper's own pitch (the
//     model absorbs traffic the engine cannot) applied as a resilience
//     mechanism.
//   - Fail-safe writes: a WAL failure flips the durable store read-only
//     (core.ErrReadOnly); /train answers 503 naming the root cause, /readyz
//     reports "read-only", and queries keep serving.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"llmq/internal/core"
	"llmq/internal/exec"
	"llmq/internal/replica"
	"llmq/internal/resilience"
	"llmq/internal/shard"
	"llmq/internal/sqlfront"
)

// Server answers analytics statements over one relation: EXACT ones from
// the executor, APPROX ones from its backend.
type Server struct {
	exec    *exec.Executor
	backend backend
	mux     *http.ServeMux
	// output and inputs are the relation's attribute names a statement must
	// name. A name the dialect cannot spell (sqlfront.IsIdentifier) is not
	// checked: output is then "", and inputs nil if any input is such.
	output string
	inputs []string

	limits     Limits
	admitQuery *resilience.Semaphore
	admitTrain *resilience.Semaphore
	lastSat    atomic.Int64 // unixnano of the last observed queue saturation
	// declineScan makes ingest and handleQuery decode every body with
	// encoding/json, as if trainBuf.scan or scanQuery had declined it. Only
	// tests set it: it is how FuzzTrainBody and FuzzQueryBody hold the two
	// decoders to the same responses.
	declineScan bool
}

const (
	// maxBatchStatements caps one /query/batch request: a single POST must
	// not be able to monopolize every worker for an unbounded stretch.
	maxBatchStatements = 4096
	// maxTrainPairs caps one /train request for the same reason; larger
	// streams just POST repeatedly (the durable log orders them anyway).
	maxTrainPairs = 4096
	// maxBodyBytes bounds request bodies before JSON decoding; generous for
	// maxBatchStatements full-length statements.
	maxBodyBytes = 4 << 20
)

// Limits bounds what one server instance will take on at once; the zero
// value of each field takes the default noted. DefaultLimits returns the
// resolved defaults.
type Limits struct {
	// QueryConcurrency is the admission capacity of the query class in
	// statements: /query costs 1, /query/batch costs its statement count
	// (clamped to half the capacity, so one maximal sheet can never
	// starve single statements out entirely). Default 4×GOMAXPROCS, at
	// least 16.
	QueryConcurrency int
	// TrainConcurrency is the admission capacity of the train class in
	// pairs. Default 2×maxTrainPairs (one batch applying, one decoding).
	TrainConcurrency int
	// AdmitWait is the bounded wait budget: how long a request may wait
	// for admission before it is shed with 429. Default 100ms; negative
	// sheds immediately when full.
	AdmitWait time.Duration
	// QueryTimeout is the per-request deadline of /query and /query/batch,
	// counted from the request's entry. Default 30s; negative disables it.
	QueryTimeout time.Duration
	// DegradeExact answers EXACT-eligible statements from the model
	// (marked "degraded": true) during brownout instead of shedding them.
	DegradeExact bool
	// BrownoutHold keeps brownout active this long past the last observed
	// queue saturation, so the EXACT path does not flap at the boundary.
	// Default 1s.
	BrownoutHold time.Duration
	// MaxReplicationLag is the replication lag, in training records, past
	// which a follower reports not-ready on /readyz (it still serves
	// queries — the flag exists so an orchestrator can route staleness-
	// sensitive traffic away). Default 4096; negative disables the check.
	MaxReplicationLag int
}

// DefaultLimits returns the limits a Server runs with when none are given.
func DefaultLimits() Limits { return Limits{}.withDefaults() }

func (l Limits) withDefaults() Limits {
	if l.QueryConcurrency <= 0 {
		l.QueryConcurrency = 4 * runtime.GOMAXPROCS(0)
		if l.QueryConcurrency < 16 {
			l.QueryConcurrency = 16
		}
	}
	if l.TrainConcurrency <= 0 {
		l.TrainConcurrency = 2 * maxTrainPairs
	}
	switch {
	case l.AdmitWait == 0:
		l.AdmitWait = 100 * time.Millisecond
	case l.AdmitWait < 0:
		l.AdmitWait = 0
	}
	switch {
	case l.QueryTimeout == 0:
		l.QueryTimeout = 30 * time.Second
	case l.QueryTimeout < 0:
		l.QueryTimeout = 0
	}
	if l.BrownoutHold <= 0 {
		l.BrownoutHold = time.Second
	}
	switch {
	case l.MaxReplicationLag == 0:
		l.MaxReplicationLag = 4096
	case l.MaxReplicationLag < 0:
		l.MaxReplicationLag = math.MaxInt
	}
	return l
}

// Option configures a Server at construction.
type Option func(*Server)

// WithLimits replaces the default overload limits.
func WithLimits(l Limits) Option {
	return func(s *Server) { s.limits = l.withDefaults() }
}

// build is the one constructor behind New, NewDurable, NewFollower and
// NewSharded: it resolves the limits, arms admission and mounts the route
// table.
func build(e *exec.Executor, b backend, opts ...Option) (*Server, error) {
	if e == nil {
		return nil, errors.New("serve: executor is required")
	}
	s := &Server{exec: e, backend: b, mux: http.NewServeMux(), limits: DefaultLimits()}
	inputs, output := e.Columns()
	if sqlfront.IsIdentifier(output) {
		s.output = output
	}
	if !slices.ContainsFunc(inputs, func(name string) bool { return !sqlfront.IsIdentifier(name) }) {
		s.inputs = inputs
	}
	for _, opt := range opts {
		opt(s)
	}
	s.admitQuery = resilience.NewSemaphore(int64(s.limits.QueryConcurrency), s.limits.AdmitWait)
	s.admitTrain = resilience.NewSemaphore(int64(s.limits.TrainConcurrency), s.limits.AdmitWait)
	// Every route declares its method once. A sheet carries its deadline
	// from entry; /query arms its own where it can be observed
	// (queryDeadline).
	for _, rt := range []struct {
		path, method string
		handler      http.HandlerFunc
	}{
		{"/query", http.MethodPost, s.handleQuery},
		{"/query/batch", http.MethodPost, resilience.WithTimeout(http.HandlerFunc(s.handleBatch), s.limits.QueryTimeout).ServeHTTP},
		{"/train", http.MethodPost, s.handleTrain},
		{"/model", http.MethodGet, s.handleModel},
		{"/healthz", http.MethodGet, handleHealth},
		{"/readyz", http.MethodGet, s.handleReady},
		{shard.PathScan, http.MethodPost, s.handleShardScan},
		{shard.PathMeta, http.MethodGet, s.handleShardMeta},
		{shard.PathTrain, http.MethodPost, s.handleShardTrain},
		{replica.PathSnapshot, http.MethodGet, s.handleReplicateSnapshot},
		{replica.PathWAL, http.MethodGet, s.handleReplicateWAL},
		{replica.PathHash, http.MethodGet, s.handleReplicateHash},
		{replica.PathPromote, http.MethodPost, s.handlePromote},
	} {
		s.mux.HandleFunc(rt.path, only(rt.method, rt.handler))
	}
	return s, nil
}

// only refuses every method but the route's own with a JSON 405.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, errors.New(method+" only"))
			return
		}
		h(w, r)
	}
}

// New creates a server over an in-memory model. The executor is required;
// the model may be nil, in which case APPROX statements are rejected with
// 409.
func New(e *exec.Executor, m *core.Model, opts ...Option) (*Server, error) {
	var l local
	if m != nil {
		if e != nil && m.K() > 0 && m.Config().Dim != e.Dim() {
			return nil, fmt.Errorf("serve: model dim %d does not match the relation's %d input attributes",
				m.Config().Dim, e.Dim())
		}
		l.Local = shard.NewLocal(m)
	}
	return build(e, l, opts...)
}

// NewDurable creates a server whose model is backed by a durable store:
// queries answer from the model's lock-free published versions as usual,
// while /train routes every batch through the write-ahead log before it is
// published, so ingested training traffic survives a crash and is replayed
// on the next boot. The caller owns the Durable's lifecycle (Close on
// shutdown, for the final checkpoint).
func NewDurable(e *exec.Executor, d *core.Durable, opts ...Option) (*Server, error) {
	if d == nil {
		return nil, errors.New("serve: durable store is required")
	}
	if e != nil && d.Model().Config().Dim != e.Dim() {
		// Unlike a plain model (checked only once trained), a durable model
		// always has a definite dimensionality — an empty one still replays
		// and ingests pairs of exactly its configured dim.
		return nil, fmt.Errorf("serve: durable model dim %d does not match the relation's %d input attributes",
			d.Model().Config().Dim, e.Dim())
	}
	return build(e, local{Local: shard.NewLocalDurable(d)}, opts...)
}

// NewFollower creates a server backed by a replica of a remote primary:
// queries answer from the follower's own model (which the replication loop
// trains as WAL records arrive), /train is refused with 421 naming the
// primary, /readyz reports the replication role and lag, and POST /promote
// turns the instance into a writable primary in place. The caller drives
// the replica's Run loop; the server only reads it. The model's
// dimensionality cannot be validated up front (it arrives with the first
// snapshot), so a mismatched follower surfaces errors per statement.
func NewFollower(e *exec.Executor, rep *replica.Replica, opts ...Option) (*Server, error) {
	if rep == nil {
		return nil, errors.New("serve: replica is required")
	}
	f := &follower{rep: rep}
	s, err := build(e, f, opts...)
	if err != nil {
		return nil, err
	}
	f.maxLag = s.limits.MaxReplicationLag
	return s, nil
}

// NewSharded creates a server whose APPROX surface is a sharded model set.
// The executor is required and answers EXACT statements from this
// process's relation copy — the relation itself is not sharded, only the
// model's query space.
func NewSharded(e *exec.Executor, sh *shard.Sharded, opts ...Option) (*Server, error) {
	if sh == nil {
		return nil, errors.New("serve: sharded set is required")
	}
	if e != nil && sh.Dim() != e.Dim() {
		return nil, fmt.Errorf("serve: sharded set dim %d does not match the relation's %d input attributes",
			sh.Dim(), e.Dim())
	}
	return build(e, sharded{sh}, opts...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	SQL string `json:"sql"`
}

// LocalModelJSON describes one element of a Q2 answer.
type LocalModelJSON struct {
	Intercept float64   `json:"intercept"`
	Slope     []float64 `json:"slope"`
	Center    []float64 `json:"center"`
	Theta     float64   `json:"theta"`
	Weight    float64   `json:"weight"`
}

// QueryResponse is the body returned by POST /query.
type QueryResponse struct {
	Kind   string           `json:"kind"`
	Approx bool             `json:"approx"`
	Mean   *float64         `json:"mean,omitempty"`
	Value  *float64         `json:"value,omitempty"`
	Models []LocalModelJSON `json:"models,omitempty"`
	Tuples int              `json:"tuples,omitempty"`
	// FVU and R2 are the in-subspace goodness-of-fit metrics of an exact
	// Q2 (REGRESSION / VALUE) execution — the fraction of variance
	// unexplained and the coefficient of determination — so remote clients
	// see the same fit diagnostics the local CLI prints. Absent on APPROX
	// answers (the model has no per-query residuals to report).
	FVU *float64 `json:"fvu,omitempty"`
	R2  *float64 `json:"r2,omitempty"`
	// Degraded marks an EXACT-eligible statement that was answered from
	// the model because the server was in brownout (Limits.DegradeExact).
	Degraded bool   `json:"degraded,omitempty"`
	Elapsed  string `json:"elapsed"`
}

// ModelInfo is the body returned by GET /model.
type ModelInfo struct {
	Loaded     bool    `json:"loaded"`
	Prototypes int     `json:"prototypes,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	Converged  bool    `json:"converged,omitempty"`
	Vigilance  float64 `json:"vigilance,omitempty"`
	Dim        int     `json:"dim,omitempty"`
	// Durable reports whether /train traffic is write-ahead logged.
	Durable bool `json:"durable,omitempty"`
	// Shards is the shard count of a sharded set (0 on a single-model
	// server); Prototypes and Steps are then totals across the shards.
	Shards int `json:"shards,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON answers status with v as one line of JSON. v is encoded before
// the header goes out, so a value JSON cannot carry (a ±Inf or NaN term)
// turns into a 500 that names it instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		_ = json.NewEncoder(&body).Encode(errorBody{Error: "the response cannot be encoded as JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body.Bytes())
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// shed refuses a request with a well-formed overload response: the given
// status plus a Retry-After header (integer seconds, at least 1) sized to
// the admission queue depth, the format resilience.Do's backoff honors.
func shed(w http.ResponseWriter, status int, retryAfter time.Duration, err error) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, err)
}

// decodeBody JSON-decodes a bounded request body into v, mapping the
// error: a body past maxBodyBytes is 413 naming the limit (the
// *http.MaxBytesError MaxBytesReader injects), anything else malformed is
// 400. A zero status means the decode succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	return decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeJSON is decodeBody over any reader: ingest runs it over a body it
// has already buffered.
func decodeJSON(body io.Reader, v any) (int, error) {
	return bodyError(json.NewDecoder(body).Decode(v))
}

// bodyError maps the error of reading or decoding a bounded request body to
// its status; nil is status 0.
func bodyError(err error) (int, error) {
	if err == nil {
		return 0, nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
}

func handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyResponse is the body returned by GET /readyz.
type ReadyResponse struct {
	// Status is "ready", "overloaded" (admission queue saturated),
	// "read-only" (the durable store took a WAL failure and stopped
	// accepting training), "recovering" (boot-time WAL replay still
	// running, served by the recovering stub handler), or — on a follower —
	// "bootstrapping" (no model yet), "lagging" (replication lag past
	// Limits.MaxReplicationLag) or "diverged" (state hash mismatched the
	// primary's; the follower is re-bootstrapping and must not be promoted).
	Status string `json:"status"`
	// Cause names the root failure for the read-only and diverged states.
	Cause string `json:"cause,omitempty"`
	// Role is "primary", "follower" or "promoting".
	Role string `json:"role,omitempty"`
	// ReplicationLag is the follower's lag behind the primary in training
	// records (primary steps at last contact minus local steps).
	ReplicationLag *int `json:"replication_lag_records,omitempty"`
	// Shards carries per-shard readiness on a sharded front-end; one
	// degraded shard makes the whole set "degraded", with Cause naming it.
	Shards []ShardReady `json:"shards,omitempty"`
}

// handleReady is the readiness probe: distinct from /healthz liveness so an
// orchestrator can stop routing new traffic to an overloaded or read-only
// instance without restarting a process that is still serving queries.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Role: "primary"}
	status := http.StatusServiceUnavailable
	switch {
	case s.backend.ready(r.Context(), &resp):
	case s.brownout():
		resp.Status = "overloaded"
	default:
		resp.Status, status = "ready", http.StatusOK
	}
	writeJSON(w, status, resp)
}

// Recovering returns the stub handler a listener serves while boot-time
// recovery (WAL replay, dataset load) is still running: /healthz answers
// 200 (the process is alive), /readyz answers 503 "recovering", and every
// other route is refused with 503 so clients back off rather than time
// out. cmd/llmq serve binds its port immediately and swaps the real
// handler in once recovery finishes.
func Recovering() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", only(http.MethodGet, handleHealth))
	mux.HandleFunc("/readyz", only(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "recovering"})
	}))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		shed(w, http.StatusServiceUnavailable, 2*time.Second, errors.New("recovering: the server is replaying its write-ahead log"))
	})
	return mux
}

// brownout reports whether the server is under sustained admission
// pressure: the query class's waiting line holds at least a full capacity
// of work now, or did within the last BrownoutHold (hysteresis, so the
// EXACT path does not flap at the saturation boundary).
func (s *Server) brownout() bool {
	if s.admitQuery.Saturated() {
		s.lastSat.Store(time.Now().UnixNano())
		return true
	}
	last := s.lastSat.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < s.limits.BrownoutHold
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.backend.describe())
}

// modelReader is the prediction surface the statement evaluator needs: a
// core.View (one published model version) or a shard.Reader (the sharded
// set's scatter bound to the request context; per-shard versions still
// advance). backend.reader takes one per request or sheet, so a
// model-backed request's statements are answered from one version even
// while training or a model swap runs concurrently.
type modelReader interface {
	PredictMean(core.Query) (float64, error)
	Regression(core.Query) ([]core.LocalLinear, error)
	PredictValue(core.Query, []float64) (float64, error)
}

// handleQuery answers one statement. The body is read once into a pooled
// queryBuf and scanned in one pass (scanQuery; a body outside the canonical
// form is decoded by encoding/json from the same bytes, which decides every
// reject), the admitted statement is answered on the one reader the
// request pinned, and the answer is appended into the same buffer and
// written once. The request's QueryTimeout is counted from entry but armed
// only where something can observe it (queryDeadline).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	dl := s.queryDeadline(r)
	defer dl.stop()
	qb := queryBufs.Get().(*queryBuf)
	defer queryBufs.Put(qb)
	body, status, err := readBody(&qb.body, w, r)
	if status != 0 {
		writeError(w, status, err)
		return
	}
	sql, scanned := scanQuery(body)
	if !scanned || s.declineScan {
		var req QueryRequest
		if status, err := decodeJSON(bytes.NewReader(body), &req); status != 0 {
			writeError(w, status, err)
			return
		}
		sql = req.SQL
	}
	if sql == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing sql"))
		return
	}
	if s.backend.readerUsesContext() {
		dl.arm()
	}
	reader := s.backend.reader(dl.ctx)
	stmt, status, err := s.parseStatement(sql, reader)
	if err != nil {
		writeError(w, status, err)
		return
	}
	// Brownout: shed the expensive relation scans first — or answer them
	// from the model when degradation is armed — while APPROX statements
	// ride through on the lock-free read path.
	degraded := false
	if !stmt.Approx && s.brownout() {
		if !s.degradable(reader) {
			shed(w, http.StatusServiceUnavailable, s.admitQuery.RetryAfter(),
				errors.New("overloaded: exact statements are browned out, retry later or use APPROX"))
			return
		}
		degraded = true
	}
	if !s.admitQuery.TryAcquire(1) {
		if err := s.admitQuery.Acquire(dl.arm(), 1); err != nil {
			s.shedQuery(w, r, err)
			return
		}
	}
	defer s.admitQuery.Release(1)
	if !(stmt.Approx || degraded) {
		dl.arm() // the EXACT scan observes it
	}
	resp, err := s.answer(dl.ctx, stmt, reader, degraded)
	if err != nil {
		s.writeAnswerError(w, r, err)
		return
	}
	if qb.out, err = appendAnswer(qb.out[:0], -1, resp); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(qb.out) // a failed write is a client that hung up
}

// queryDeadline notes a /query request's entry: its deadline is entry +
// QueryTimeout, as the wrapper /query/batch keeps would set it.
func (s *Server) queryDeadline(r *http.Request) lazyDeadline {
	d := lazyDeadline{ctx: r.Context()}
	if t := s.limits.QueryTimeout; t > 0 {
		d.at = time.Now().Add(t)
	}
	return d
}

// lazyDeadline is a request deadline armed only by the first step that can
// observe it: pinning a reader that uses the request context, a queued
// admission, an EXACT scan. An APPROX statement answered from an
// in-process model and admitted without queueing creates no timer.
type lazyDeadline struct {
	ctx    context.Context
	at     time.Time // zero: QueryTimeout is disabled
	cancel context.CancelFunc
}

// arm attaches the deadline to ctx, once, and returns ctx.
func (d *lazyDeadline) arm() context.Context {
	if d.cancel == nil && !d.at.IsZero() {
		d.ctx, d.cancel = context.WithDeadline(d.ctx, d.at)
	}
	return d.ctx
}

// stop releases the deadline's timer, if arm created one.
func (d *lazyDeadline) stop() {
	if d.cancel != nil {
		d.cancel()
	}
}

// shedQuery maps an admission failure: overload is 429 + Retry-After; a
// dead request context means the client is gone or the deadline passed
// before admission, which writeAnswerError maps.
func (s *Server) shedQuery(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, resilience.ErrOverloaded) {
		shed(w, http.StatusTooManyRequests, s.admitQuery.RetryAfter(),
			errors.New("overloaded: admission queue is full, retry later"))
		return
	}
	s.writeAnswerError(w, r, err)
}

// writeAnswerError maps an execution error to a response: an expired
// deadline is 504 (the admitted request ran out of its time budget), a
// client disconnect gets no body (nobody is reading), an empty subspace is
// 404, everything else 500.
func (s *Server) writeAnswerError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, errors.New("query deadline exceeded"))
	case errors.Is(err, context.Canceled):
		// The client hung up; there is nobody to write a body to.
	case errors.Is(err, exec.ErrEmptySubspace):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// degradable reports whether a statement that asked for EXACT execution
// could instead be answered by the model: every statement kind has an
// APPROX twin, so the only requirement is a reader — prototypes of the
// right dimensionality to answer from (parseStatement already validated the
// dimensions).
func (s *Server) degradable(reader modelReader) bool {
	return s.limits.DegradeExact && reader != nil
}

// parseStatement parses and validates one SQL statement against the served
// relation and the pinned reader (nil when the backend has no prototypes),
// returning the HTTP status to use on error. The statement must name the
// relation's output attribute, and a REGRESSION that lists its inputs must
// list the relation's input attributes in column order, as far as the
// dialect can spell them (s.output, s.inputs); FROM is not checked, since a
// server holds one relation.
func (s *Server) parseStatement(sql string, reader modelReader) (*sqlfront.Statement, int, error) {
	stmt, err := sqlfront.Parse(sql)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if s.output != "" && stmt.Output != s.output {
		return nil, http.StatusBadRequest,
			fmt.Errorf("unknown output attribute %q: the relation's output attribute is %q", stmt.Output, s.output)
	}
	if len(stmt.Inputs) > 0 && s.inputs != nil && !slices.Equal(stmt.Inputs, s.inputs) {
		return nil, http.StatusBadRequest,
			fmt.Errorf("regression inputs (%s) are not the relation's input attributes (%s) in order",
				strings.Join(stmt.Inputs, ", "), strings.Join(s.inputs, ", "))
	}
	if len(stmt.Center) != s.exec.Dim() {
		return nil, http.StatusBadRequest,
			fmt.Errorf("query centre has %d coordinates, relation has %d input attributes",
				len(stmt.Center), s.exec.Dim())
	}
	if stmt.Approx && reader == nil {
		return nil, http.StatusConflict, errors.New("no trained model loaded for APPROX statements")
	}
	return stmt, http.StatusOK, nil
}

// TrainPair is one training observation in a POST /train body: the query
// (centre and radius) and the answer the engine produced for it.
type TrainPair struct {
	Center []float64 `json:"center"`
	Theta  float64   `json:"theta"`
	Answer float64   `json:"answer"`
}

// TrainRequest is the body of POST /train.
type TrainRequest struct {
	Pairs []TrainPair `json:"pairs"`
}

// TrainResponse is the body returned by POST /train.
type TrainResponse struct {
	// Accepted is the number of pairs applied (a converged model freezes
	// its parameters and absorbs none — check Converged).
	Accepted   int    `json:"accepted"`
	Steps      int    `json:"steps"`
	Prototypes int    `json:"prototypes"`
	Converged  bool   `json:"converged"`
	Durable    bool   `json:"durable"`
	Elapsed    string `json:"elapsed"`
}

// ingest is the one path training pairs take into the server, shared by
// /train and /shard/train: the backend's own refusals first (so an instance
// that cannot train never reads the body), then the bounded body is read
// once into a pooled trainBuf and decoded in one pass (trainBuf.scan; a body
// outside the canonical grammar is decoded by encoding/json and
// convertPairs from the same bytes, which decides every reject), admission
// weighted by the pair count, then the backend's train — one writer-lock
// acquisition per model while queries keep answering lock-free from the
// previous published version. The batch stays one unit all the way down: a
// durable backend logs it with one write and overlaps its fsync with the
// model update (core.Durable.TrainBatch). On failure the response has been
// written and ok is false.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request, b backend) (st shard.TrainStats, durable bool, elapsed time.Duration, ok bool) {
	var (
		weight int64 // the admitted pair count; 0 until admission succeeds
		start  time.Time
	)
	tb := trainBufs.Get().(*trainBuf)
	defer func() {
		if weight > 0 {
			s.admitTrain.Release(weight)
		}
		trainBufs.Put(tb) // the backend is done with the pairs by now
	}()
	st, durable, err := b.train(r.Context(), func() ([]core.TrainingPair, error) {
		body, status, err := readBody(&tb.body, w, r)
		if status != 0 {
			return nil, statusError{status, err}
		}
		pairs, scanned := tb.scan(body)
		if !scanned || s.declineScan {
			var req TrainRequest
			if status, err := decodeJSON(bytes.NewReader(body), &req); status != 0 {
				return nil, statusError{status, err}
			}
			if pairs, err = convertPairs(req.Pairs); err != nil {
				return nil, statusError{http.StatusBadRequest, err}
			}
		}
		if err := s.admitTrain.Acquire(r.Context(), int64(len(pairs))); err != nil {
			return nil, err
		}
		weight, start = int64(len(pairs)), time.Now()
		return pairs, nil
	})
	var (
		refused     statusError
		misdirected notPrimaryError
	)
	switch cerr := r.Context().Err(); {
	case err == nil:
		return st, durable, time.Since(start), true
	case errors.As(err, &refused):
		writeError(w, refused.status, refused.err)
	case errors.As(err, &misdirected):
		writeError(w, http.StatusMisdirectedRequest,
			fmt.Errorf("this instance is a read-only follower; POST %s to the primary at %s", r.URL.Path, misdirected.primary))
	case errors.Is(err, resilience.ErrOverloaded):
		shed(w, http.StatusTooManyRequests, s.admitTrain.RetryAfter(),
			errors.New("overloaded: training admission queue is full, retry later"))
	case errors.Is(err, core.ErrReadOnly):
		// A WAL failure flipped the store read-only under this very batch.
		writeError(w, http.StatusServiceUnavailable, err)
	case cerr != nil && errors.Is(err, cerr):
		s.writeAnswerError(w, r, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return st, false, 0, false
}

// convertPairs validates a /train body's pairs into core training pairs.
func convertPairs(in []TrainPair) ([]core.TrainingPair, error) {
	if len(in) == 0 {
		return nil, errors.New("missing pairs")
	}
	if len(in) > maxTrainPairs {
		return nil, fmt.Errorf("request has %d pairs, limit is %d", len(in), maxTrainPairs)
	}
	pairs := make([]core.TrainingPair, len(in))
	for i, p := range in {
		q, err := core.NewQuery(p.Center, p.Theta)
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		pairs[i] = core.TrainingPair{Query: q, Answer: p.Answer}
	}
	return pairs, nil
}

// handleTrain ingests training pairs into the backend.
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	st, durable, elapsed, ok := s.ingest(w, r, s.backend)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, TrainResponse{
		Accepted:   st.Accepted,
		Steps:      st.Steps,
		Prototypes: st.K,
		Converged:  st.Converged,
		Durable:    durable,
		Elapsed:    elapsed.String(),
	})
}

// BatchRequest is the body of POST /query/batch.
type BatchRequest struct {
	SQL []string `json:"sql"`
}

// batchWeight is what a sheet of n statements costs against the query
// admission class: its statement count, clamped to half the capacity so
// one maximal sheet leaves room for single statements (two can still fill
// the server, and a third then waits its budget like anything else).
func (s *Server) batchWeight(n int) int64 {
	half := s.admitQuery.Capacity() / 2
	if half < 1 {
		half = 1
	}
	if w := int64(n); w < half {
		return w
	}
	return half
}

// handleBatch streams a statement sheet's answers as NDJSON: admission and
// validation first (refusals are plain status-coded JSON — nothing has
// streamed yet), then a 200 whose body is one result frame per statement
// in statement order, each flushed as its prefix completes, and a trailer.
// Two failure paths matter: a statement the pool never reached (deadline,
// shutdown) still gets a per-statement error frame, and a client that
// stops reading cancels the rest of the sheet AND releases the sheet's
// admission weight immediately — an abandoned stream must not hold
// capacity for work that no longer has an audience.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if status, err := decodeBody(w, r, &req); status != 0 {
		writeError(w, status, err)
		return
	}
	if len(req.SQL) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing sql statements"))
		return
	}
	if len(req.SQL) > maxBatchStatements {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d statements, limit is %d", len(req.SQL), maxBatchStatements))
		return
	}
	ticket, err := s.admitQuery.AcquireTicket(r.Context(), s.batchWeight(len(req.SQL)))
	if err != nil {
		s.shedQuery(w, r, err)
		return
	}
	// Released exactly once: here on the normal path, or early below when
	// the client goes away mid-stream (Ticket.Release is idempotent).
	defer ticket.Release()
	if r.Context().Err() != nil {
		// The client was already gone before a byte streamed; write nothing.
		return
	}
	// The brownout decision is taken once per sheet, at admission: every
	// EXACT statement of the sheet is then either degraded or refused
	// per-item, while the APPROX statements always run.
	brown := s.brownout()
	start := time.Now()
	n := len(req.SQL)
	// ctx cancels with the request (disconnect, deadline, shutdown) and on
	// the first write error, so a dead stream stops claiming statements.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	reader := s.backend.reader(ctx)
	degradable := s.degradable(reader)
	frames := make([]BatchFrame, n)
	ran := make([]bool, n)
	completed := make(chan int, n) // buffered: the pool never blocks on a slow writer
	var poolErr error
	go func() {
		defer close(completed)
		poolErr = exec.ForEachParallelStream(ctx, n, func(i int) {
			frames[i] = s.batchFrame(ctx, i, req.SQL[i], reader, brown, degradable)
			ran[i] = true
		}, completed)
	}()
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	clientGone := func() {
		cancel()
		ticket.Release()
		for range completed {
		} // let the pool goroutine finish and exit
	}
	wrote, werr := streamFrames(w, n, completed, func(i int) BatchFrame { return frames[i] })
	if werr != nil {
		clientGone()
		return
	}
	// The pool is done (completed is closed). Statements it never claimed —
	// the sheet's deadline or the server's shutdown got there first — still
	// owe their positional frame.
	fw := frameWriter{w: w}
	for ; wrote < n; wrote++ {
		f := frames[wrote]
		if !ran[wrote] {
			msg := "statement not executed"
			switch {
			case errors.Is(poolErr, context.DeadlineExceeded):
				msg = "query deadline exceeded"
			case poolErr != nil:
				msg = poolErr.Error()
			}
			f = errorFrame(wrote, msg)
		}
		if err := fw.write(f); err != nil {
			clientGone()
			return
		}
	}
	if err := fw.write(BatchFrame{Done: true, Results: n, TotalElapsed: time.Since(start).String()}); err != nil {
		clientGone()
	}
}

// batchFrame evaluates one statement of a sheet into its result frame,
// applying the sheet's brownout decision per statement.
func (s *Server) batchFrame(ctx context.Context, i int, sql string, reader modelReader, brown, degradable bool) BatchFrame {
	stmt, _, err := s.parseStatement(sql, reader)
	if err != nil {
		return errorFrame(i, err.Error())
	}
	degraded := false
	if !stmt.Approx && brown {
		if !degradable {
			return errorFrame(i, "overloaded: exact statements are browned out, retry later or use APPROX")
		}
		degraded = true
	}
	resp, err := s.answer(ctx, stmt, reader, degraded)
	if err != nil {
		return errorFrame(i, err.Error())
	}
	return resultFrame(i, resp)
}

// answer evaluates one parsed statement. EXACT statements run through the
// context-aware executors, so a vanished client or an expired deadline
// stops the relation scan; with degraded set (brownout + DegradeExact) an
// EXACT statement is answered from the model instead and marked so.
func (s *Server) answer(ctx context.Context, stmt *sqlfront.Statement, model modelReader, degraded bool) (*QueryResponse, error) {
	start := time.Now()
	approx := stmt.Approx || degraded
	resp := &QueryResponse{Kind: stmt.Kind.String(), Approx: approx, Degraded: degraded}
	rq := exec.RadiusQuery{Center: stmt.Center, Theta: stmt.Theta, P: stmt.Norm}

	finish := func() *QueryResponse {
		resp.Elapsed = time.Since(start).String()
		return resp
	}

	switch stmt.Kind {
	case sqlfront.StmtMean:
		if approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return nil, err
			}
			y, err := model.PredictMean(q)
			if err != nil {
				return nil, err
			}
			resp.Mean = &y
			return finish(), nil
		}
		res, err := s.exec.MeanCtx(ctx, rq)
		if err != nil {
			return nil, err
		}
		resp.Mean = &res.Mean
		resp.Tuples = res.Count
		return finish(), nil

	case sqlfront.StmtRegression:
		if approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return nil, err
			}
			locals, err := model.Regression(q)
			if err != nil {
				return nil, err
			}
			for _, lm := range locals {
				resp.Models = append(resp.Models, LocalModelJSON{
					Intercept: lm.Intercept,
					Slope:     lm.Slope,
					Center:    lm.Center,
					Theta:     lm.Theta,
					Weight:    lm.Weight,
				})
			}
			return finish(), nil
		}
		res, err := s.exec.RegressionCtx(ctx, rq)
		if err != nil {
			return nil, err
		}
		resp.Models = []LocalModelJSON{{
			Intercept: res.Intercept,
			Slope:     res.Slope,
			Center:    stmt.Center,
			Theta:     stmt.Theta,
			Weight:    1,
		}}
		resp.Tuples = res.Count
		resp.fit(&res)
		return finish(), nil

	case sqlfront.StmtValue:
		if len(stmt.At) != len(stmt.Center) {
			return nil, fmt.Errorf("AT point has %d coordinates, centre has %d", len(stmt.At), len(stmt.Center))
		}
		if approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return nil, err
			}
			u, err := model.PredictValue(q, stmt.At)
			if err != nil {
				return nil, err
			}
			resp.Value = &u
			return finish(), nil
		}
		res, err := s.exec.RegressionCtx(ctx, rq)
		if err != nil {
			return nil, err
		}
		u := res.Predict(stmt.At)
		resp.Value = &u
		resp.Tuples = res.Count
		resp.fit(&res)
		return finish(), nil
	}
	return nil, fmt.Errorf("unsupported statement kind %v", stmt.Kind)
}

// fit sets the goodness-of-fit fields of an exact Q2 answer. R2 is always
// finite; FVU is +Inf by contract when the subspace's response is constant
// and the fit is not exact (linalg.OLSModel.FVU), and JSON has no infinity,
// so it is then left out, as the schema allows.
func (resp *QueryResponse) fit(res *exec.RegressionResult) {
	resp.R2 = &res.CoD
	if !math.IsInf(res.FVU, 0) && !math.IsNaN(res.FVU) {
		resp.FVU = &res.FVU
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/wal"
)

// TestMethodNotAllowedEverywhere sweeps every mounted endpoint with a wrong
// method and requires a well-formed 405 — probes and misconfigured clients
// must never fall through to a handler body.
func TestMethodNotAllowedEverywhere(t *testing.T) {
	s := newServer(t, false)
	cases := []struct{ method, path string }{
		{http.MethodGet, "/query"},
		{http.MethodDelete, "/query"},
		{http.MethodGet, "/query/batch"},
		{http.MethodPut, "/query/batch"},
		{http.MethodGet, "/train"},
		{http.MethodPost, "/model"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/readyz"},
		{http.MethodDelete, "/readyz"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s %s: body %q is not a JSON error", c.method, c.path, rec.Body.String())
		}
	}
}

// TestBodyTooLarge413 sends bodies past maxBodyBytes to every decoding
// endpoint and requires 413 with the limit named in the message, not a
// generic 400 that would tell the client to fix its JSON.
func TestBodyTooLarge413(t *testing.T) {
	// A model-backed server, so /train reaches its body decode (the
	// modelless 409 would otherwise win).
	s := newServer(t, true)
	huge := `{"sql": "` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	for _, path := range []string{"/query", "/query/batch", "/train"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
		if want := strconv.Itoa(maxBodyBytes); !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s: 413 body %q does not name the %s-byte limit", path, rec.Body.String(), want)
		}
	}
}

// TestReadyzStates walks the readiness probe through its states: ready on a
// healthy server, overloaded while the admission queue reports saturation,
// and read-only after a WAL fault — each with the right status code.
func TestReadyzStates(t *testing.T) {
	s := newServer(t, false, WithLimits(Limits{BrownoutHold: 50 * time.Millisecond}))
	getReady := func() (int, ReadyResponse) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var r ReadyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatalf("readyz body %q: %v", rec.Body.String(), err)
		}
		return rec.Code, r
	}
	if code, r := getReady(); code != http.StatusOK || r.Status != "ready" {
		t.Fatalf("healthy readyz = %d %+v", code, r)
	}
	// Overload: an observed saturation holds brownout for BrownoutHold.
	s.lastSat.Store(time.Now().UnixNano())
	if code, r := getReady(); code != http.StatusServiceUnavailable || r.Status != "overloaded" {
		t.Fatalf("saturated readyz = %d %+v", code, r)
	}
	time.Sleep(60 * time.Millisecond)
	if code, r := getReady(); code != http.StatusOK || r.Status != "ready" {
		t.Fatalf("readyz after brownout hold = %d %+v", code, r)
	}
}

// TestShedWith429AndRetryAfter fills the query admission class and requires
// the next request to shed as 429 with a Retry-After header holding integer
// seconds ≥ 1 — the exact format resilience.ParseRetryAfter (and any
// standard client) consumes.
func TestShedWith429AndRetryAfter(t *testing.T) {
	s := newServer(t, false, WithLimits(Limits{QueryConcurrency: 1, AdmitWait: -1}))
	// Hold the only admission slot so the HTTP request cannot be admitted.
	if err := s.admitQuery.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	defer s.admitQuery.Release(1)
	rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d body %s, want 429", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "overloaded") {
		t.Errorf("429 body %q should be a JSON overload error", rec.Body.String())
	}
}

// TestBrownoutShedsExactKeepsApprox puts the server in brownout and
// requires the asymmetry the tentpole promises: EXACT statements shed with
// 503 while APPROX statements keep answering from the model.
func TestBrownoutShedsExactKeepsApprox(t *testing.T) {
	s := newServer(t, true, WithLimits(Limits{BrownoutHold: time.Minute}))
	s.lastSat.Store(time.Now().UnixNano())
	if rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("EXACT under brownout: status %d, want 503", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Error("EXACT brownout shed is missing Retry-After")
	}
	rec := postQuery(t, s, "SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)")
	if rec.Code != http.StatusOK {
		t.Errorf("APPROX under brownout: status %d body %s, want 200", rec.Code, rec.Body.String())
	}
}

// TestDegradeExactAnswersFromModel arms Limits.DegradeExact and requires a
// browned-out EXACT statement to come back 200 from the model, marked
// "degraded": true — and the same statement un-marked once the brownout
// lifts.
func TestDegradeExactAnswersFromModel(t *testing.T) {
	s := newServer(t, true, WithLimits(Limits{DegradeExact: true, BrownoutHold: time.Minute}))
	const sql = "SELECT AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"
	exact := postQuery(t, s, sql)
	if exact.Code != http.StatusOK {
		t.Fatalf("healthy exact: status %d", exact.Code)
	}
	var before QueryResponse
	if err := json.Unmarshal(exact.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	if before.Degraded || before.Approx {
		t.Fatalf("healthy exact answered %+v, want exact and not degraded", before)
	}

	s.lastSat.Store(time.Now().UnixNano())
	rec := postQuery(t, s, sql)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded exact: status %d body %s", rec.Code, rec.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || !resp.Approx || resp.Mean == nil {
		t.Fatalf("degraded response %+v, want a model answer marked degraded", resp)
	}
	// The degraded answer is the model's view of the same subspace: loosely
	// consistent with the exact one.
	if diff := *resp.Mean - *before.Mean; diff > 1 || diff < -1 {
		t.Errorf("degraded mean %v vs exact %v diverge wildly", *resp.Mean, *before.Mean)
	}
	// Degradation also reaches the batch path, per statement.
	brec := postBatch(t, s, BatchRequest{SQL: []string{sql, "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"}})
	if brec.Code != http.StatusOK {
		t.Fatalf("batch under degrade: status %d", brec.Code)
	}
	frames, _ := decodeStream(t, brec)
	if len(frames) != 2 || frames[0].QueryResponse == nil || !frames[0].Degraded {
		t.Errorf("batch frames %+v, want the EXACT statement degraded", frames)
	}
	if frames[1].QueryResponse == nil || frames[1].Degraded {
		t.Errorf("batch frames %+v, want the APPROX statement answered un-degraded", frames)
	}
}

// TestBrownoutWithoutModelShedsBatchItems is the no-model corner of the
// batch brownout: EXACT items are refused per-item (the sheet itself still
// answers 200 with positional errors), because there is nothing to degrade
// to.
func TestBrownoutWithoutModelShedsBatchItems(t *testing.T) {
	s := newServer(t, false, WithLimits(Limits{DegradeExact: true, BrownoutHold: time.Minute}))
	s.lastSat.Store(time.Now().UnixNano())
	rec := postBatch(t, s, BatchRequest{SQL: []string{"SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec.Code)
	}
	frames, _ := decodeStream(t, rec)
	if len(frames) != 1 || !strings.Contains(frames[0].Error, "browned out") {
		t.Errorf("batch frames %+v, want a browned-out statement error", frames)
	}
}

// TestQueryDeadline504 gives the server a deadline that has effectively
// already passed and requires the 504 mapping — the admitted-but-too-slow
// signal, distinct from the 429 shed.
func TestQueryDeadline504(t *testing.T) {
	s := newServer(t, false, WithLimits(Limits{QueryTimeout: time.Nanosecond}))
	rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s, want 504", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("504 body %q should name the deadline", rec.Body.String())
	}
}

// TestTrainReadOnlyAfterWALFault drives the fail-safe write path over HTTP:
// a WAL fault mid-/train answers 503 naming the root cause, the failure is
// sticky, /readyz flips to read-only, and queries keep serving.
func TestTrainReadOnlyAfterWALFault(t *testing.T) {
	dir := t.TempDir()
	plain := newServer(t, false)
	var arm atomic.Bool
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.1
	d, err := core.Recover(dir, cfg, core.DurableOptions{WAL: wal.Options{
		Mode: wal.SyncNone,
		Fault: func(string) error {
			if arm.Load() {
				return errors.New("injected: disk gone")
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := NewDurable(plain.exec, d)
	if err != nil {
		t.Fatal(err)
	}
	if rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(10)}); rec.Code != http.StatusOK {
		t.Fatalf("healthy train: status %d body %s", rec.Code, rec.Body.String())
	}
	arm.Store(true)
	rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(5)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted train: status %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected: disk gone") {
		t.Errorf("503 body %q should name the root cause", rec.Body.String())
	}
	// Sticky after the fault clears, and fast-failed before decoding.
	arm.Store(false)
	if rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(5)}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("train after fault cleared: status %d, want sticky 503", rec.Code)
	}
	// Readiness reports the read-only state with its cause.
	rrec := httptest.NewRecorder()
	s.ServeHTTP(rrec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready ReadyResponse
	if err := json.Unmarshal(rrec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if rrec.Code != http.StatusServiceUnavailable || ready.Status != "read-only" || !strings.Contains(ready.Cause, "injected") {
		t.Errorf("readyz = %d %+v, want 503 read-only with the injected cause", rrec.Code, ready)
	}
	// Queries are untouched by the write-side failure.
	if rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"); rec.Code != http.StatusOK {
		t.Errorf("query on a read-only server: status %d", rec.Code)
	}
}

// TestReplicateHashReadOnly503 pins /replicate/hash on a store a failed WAL
// write made read-only: the live hash answers 503 naming the root cause,
// because the writer state may hold a batch that was never acknowledged,
// while a boundary hash recorded before the failure (?gen=) still answers
// 200 with the same body as before.
func TestReplicateHashReadOnly503(t *testing.T) {
	plain := newServer(t, false)
	var arm atomic.Bool
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.1
	d, err := core.Recover(t.TempDir(), cfg, core.DurableOptions{
		SnapshotEvery: 8, // the healthy batch below crosses one boundary
		WAL: wal.Options{Mode: wal.SyncNone, Fault: func(string) error {
			if arm.Load() {
				return errors.New("injected: disk gone")
			}
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := NewDurable(plain.exec, d)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(10)}); rec.Code != http.StatusOK {
		t.Fatalf("healthy train: status %d body %s", rec.Code, rec.Body.String())
	}
	if rec := get("/replicate/hash"); rec.Code != http.StatusOK {
		t.Fatalf("healthy /replicate/hash: status %d body %s", rec.Code, rec.Body.String())
	}
	boundary := get("/replicate/hash?gen=1")
	if boundary.Code != http.StatusOK {
		t.Fatalf("/replicate/hash?gen=1: status %d body %s, want the boundary the healthy batch crossed", boundary.Code, boundary.Body.String())
	}
	arm.Store(true)
	if rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(5)}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted train: status %d, want 503", rec.Code)
	}
	arm.Store(false)
	rec := get("/replicate/hash")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "injected: disk gone") {
		t.Fatalf("/replicate/hash on a read-only store: status %d body %s, want 503 naming the root cause", rec.Code, rec.Body.String())
	}
	if rec := get("/replicate/hash?gen=1"); rec.Code != http.StatusOK || rec.Body.String() != boundary.Body.String() {
		t.Fatalf("/replicate/hash?gen=1 on a read-only store: status %d body %s, want 200 %s", rec.Code, rec.Body.String(), boundary.Body.String())
	}
}

// TestFloodKeepsGoroutinesBounded hammers a capacity-2 server with 40×
// its capacity under -race and pins the resource contract: every response
// is a 200 or a well-formed shed — the 429 of a full admission queue or,
// since the flood is an EXACT statement and a saturated queue browns those
// out, the 503 of the brownout, both with Retry-After and a JSON body — and
// the goroutine count returns to its baseline: sustained sheds must not
// leak admission waiters.
func TestFloodKeepsGoroutinesBounded(t *testing.T) {
	s := newServer(t, false, WithLimits(Limits{QueryConcurrency: 2, AdmitWait: 5 * time.Millisecond}))
	ts := httptest.NewServer(s)
	defer ts.Close()
	base := runtime.NumGoroutine()

	const flood = 80
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	body := []byte(`{"sql": "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"}`)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			payload, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" || !json.Valid(payload) {
					other.Add(1)
					return
				}
				shed.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := ok.Load() + shed.Load(); got != flood || other.Load() != 0 {
		t.Fatalf("flood outcomes: %d ok + %d shed + %d malformed, want %d well-formed", ok.Load(), shed.Load(), other.Load(), flood)
	}
	if ok.Load() == 0 {
		t.Error("flood starved every request; some should have been admitted")
	}
	// The goroutine count settles back: no admission waiter or handler leaked.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+10 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+10 {
		t.Errorf("goroutines grew from %d to %d after the flood drained", base, n)
	}
}

// TestTrainAdmissionWeightedByPairs fills the train class and checks a
// /train POST sheds with 429 + Retry-After while the query class stays
// open — the two admission classes are independent.
func TestTrainAdmissionWeightedByPairs(t *testing.T) {
	s := newServer(t, true, WithLimits(Limits{TrainConcurrency: 8, AdmitWait: -1}))
	if err := s.admitTrain.Acquire(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	defer s.admitTrain.Release(8)
	rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(4)})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("train while full: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 train shed is missing Retry-After")
	}
	if rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"); rec.Code != http.StatusOK {
		t.Errorf("query while the train class is full: status %d, want 200", rec.Code)
	}
}

// TestBatchWeightClamp pins the sheet-cost policy: a maximal sheet costs at
// most half the query capacity, so single statements keep a lane.
func TestBatchWeightClamp(t *testing.T) {
	s := newServer(t, false, WithLimits(Limits{QueryConcurrency: 8}))
	for n, want := range map[int]int64{1: 1, 3: 3, 4: 4, 5: 4, maxBatchStatements: 4} {
		if got := s.batchWeight(n); got != want {
			t.Errorf("batchWeight(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRecoveringHandler checks the boot-time stub: alive on /healthz,
// "recovering" on /readyz, and a 503 + Retry-After shed everywhere else.
func TestRecoveringHandler(t *testing.T) {
	h := Recovering()
	get := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	if rec := get(http.MethodGet, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("recovering healthz = %d, want 200", rec.Code)
	}
	rec := get(http.MethodGet, "/readyz")
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || ready.Status != "recovering" {
		t.Errorf("recovering readyz = %d %+v", rec.Code, ready)
	}
	if rec := get(http.MethodPost, "/query"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("recovering /query = %d (Retry-After %q), want a 503 shed", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestLimitsDefaults pins the Limits zero-value resolution, including the
// negative sentinels for "disabled".
func TestLimitsDefaults(t *testing.T) {
	l := DefaultLimits()
	if l.QueryConcurrency < 16 || l.TrainConcurrency != 2*maxTrainPairs ||
		l.AdmitWait != 100*time.Millisecond || l.QueryTimeout != 30*time.Second || l.BrownoutHold != time.Second {
		t.Errorf("DefaultLimits() = %+v", l)
	}
	off := Limits{AdmitWait: -1, QueryTimeout: -1}.withDefaults()
	if off.AdmitWait != 0 || off.QueryTimeout != 0 {
		t.Errorf("negative sentinels resolved to %+v, want both disabled (0)", off)
	}
	if fmt.Sprint(off.QueryConcurrency) == "0" {
		t.Error("disabled timeouts must not disable concurrency defaults")
	}
}

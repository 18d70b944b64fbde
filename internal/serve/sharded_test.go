package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/index"
	"llmq/internal/shard"
	"llmq/internal/synth"
)

// newShardedServer builds a sharded server over the synthetic relation:
// `shards` fresh local models behind a partition of [0,1]^2, returned in
// shard order beside the set that fronts them.
func newShardedServer(t *testing.T, shards int, opts ...Option) (*Server, *shard.Sharded, []shard.Backend) {
	t.Helper()
	e := newShardedExecutor(t)
	part, backends := newShardParts(t, shards)
	sh, err := shard.New(part, backends)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(e, sh, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, sh, backends
}

func newShardedExecutor(t testing.TB) *exec.Executor {
	t.Helper()
	pts, err := synth.Generate(synth.R1Config(5000, 2, 31))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.FromPoints("r1", pts.Xs, pts.Us)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := engine.NewCatalog().LoadDataset("r1", ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newShardParts(t *testing.T, shards int) (*index.Partition, []shard.Backend) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	sample := make([]float64, 0, 400)
	for i := 0; i < 200; i++ {
		sample = append(sample, rng.Float64(), rng.Float64())
	}
	part, err := index.NewPartition(2, shards, sample, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]shard.Backend, shards)
	for i := range backends {
		cfg := core.DefaultConfig(2)
		cfg.Vigilance = 0.25
		cfg.Gamma = 1e-12
		m, err := core.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = shard.NewLocal(m)
	}
	return part, backends
}

func shardedTrainBody(t *testing.T, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var req TrainRequest
	for i := 0; i < n; i++ {
		req.Pairs = append(req.Pairs, TrainPair{
			Center: []float64{rng.Float64(), rng.Float64()},
			Theta:  0.05 + 0.1*rng.Float64(),
			Answer: rng.NormFloat64(),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestShardedServerEndToEnd drives the sharded HTTP surface: /train
// partitions pairs across the shards, /model aggregates the set, APPROX
// statements answer bit-identically to the sharded reader, and /readyz
// reports every shard.
func TestShardedServerEndToEnd(t *testing.T) {
	s, sh, backends := newShardedServer(t, 2)

	// APPROX before any training is refused like a model-less server.
	rec := postQuery(t, s, "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)")
	if rec.Code != http.StatusConflict {
		t.Fatalf("untrained APPROX status = %d", rec.Code)
	}
	// EXACT works regardless — the relation is not sharded.
	rec = postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)")
	if rec.Code != http.StatusOK {
		t.Fatalf("exact status = %d: %s", rec.Code, rec.Body)
	}

	const pairs = 600
	req := httptest.NewRequest(http.MethodPost, "/train", bytes.NewReader(shardedTrainBody(t, pairs, 7)))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("train status = %d: %s", rec.Code, rec.Body)
	}
	var tr TrainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted != pairs || tr.Steps != pairs {
		t.Fatalf("train response %+v, want %d accepted and steps", tr, pairs)
	}
	for id, b := range backends {
		if b.Stats().Live == 0 {
			t.Fatalf("shard %d got no prototypes; /train did not partition", id)
		}
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/model", nil))
	var info ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.Shards != 2 || info.Steps != pairs || info.Prototypes != sh.Stats().Live {
		t.Fatalf("sharded /model = %+v", info)
	}

	rec = postQuery(t, s, "SELECT APPROX AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)")
	if rec.Code != http.StatusOK {
		t.Fatalf("approx status = %d: %s", rec.Code, rec.Body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	want, err := sh.Reader(context.Background()).PredictMean(core.Query{Center: []float64{0.5, 0.5}, Theta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Approx || qr.Mean == nil || *qr.Mean != want {
		t.Fatalf("approx answer %+v, sharded reader says %v", qr, want)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz status = %d: %s", rec.Code, rec.Body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || len(ready.Shards) != 2 {
		t.Fatalf("sharded /readyz = %+v", ready)
	}
	for _, sr := range ready.Shards {
		if sr.Status != "ready" {
			t.Fatalf("healthy shard reported %+v", sr)
		}
	}
}

// TestShardedQueryDeadline504 pins that a sharded reader binds the request
// deadline (sharded.readerUsesContext): over a remote shard whose scan never
// answers on its own, an APPROX statement must end as a 504 naming the
// deadline once QueryTimeout passes, not wait on the shard.
func TestShardedQueryDeadline504(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(shard.PathMeta, func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(shard.Meta{Dim: 2, Live: 1, Steps: 1, MaxTheta: 0.1})
	})
	mux.HandleFunc(shard.PathScan, func(_ http.ResponseWriter, r *http.Request) {
		// Reading the body to EOF lets the server notice the router hang up;
		// until then the scan blocks.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	remote := shard.NewRemote(ts.URL, nil, nil)
	if err := remote.Prime(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	part, err := index.NewPartition(2, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(part, []shard.Backend{remote})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(newShardedExecutor(t), sh, WithLimits(Limits{QueryTimeout: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}

	// The request's own context ends only when the test does, so a handler
	// that never armed the deadline stays blocked on the scan.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"sql":"SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"}`
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		cancel()
		<-done
		t.Fatal("APPROX over a stalled shard still running 1s after a 50ms QueryTimeout")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d body %s, want 504", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("504 body %q should name the deadline", rec.Body.String())
	}
}

// unhealthyBackend is a shard stub whose health probe reports a failure.
type unhealthyBackend struct {
	shard.Backend
	health shard.Health
}

func (u unhealthyBackend) Health(context.Context) shard.Health { return u.health }

// TestShardedReadyDegradation is satellite coverage for the aggregated
// /readyz: one read-only shard degrades the whole set, and the response
// names the shard and its cause.
func TestShardedReadyDegradation(t *testing.T) {
	e := newShardedExecutor(t)
	part, backends := newShardParts(t, 2)
	backends[1] = unhealthyBackend{
		Backend: backends[1],
		health:  shard.Health{Status: "read-only", Cause: "wal append: disk full"},
	}
	sh, err := shard.New(part, backends)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(e, sh)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz status = %d: %s", rec.Code, rec.Body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", ready.Status)
	}
	if !strings.Contains(ready.Cause, "shard 1 read-only") || !strings.Contains(ready.Cause, "disk full") {
		t.Fatalf("cause %q does not name the failing shard", ready.Cause)
	}
	if len(ready.Shards) != 2 || ready.Shards[0].Status != "ready" || ready.Shards[1].Status != "read-only" {
		t.Fatalf("per-shard readiness = %+v", ready.Shards)
	}
}

// TestShardWireEndpoints checks that every model-backed server speaks the
// shard protocol, so it can stand behind a remote router: /shard/meta,
// /shard/scan and /shard/train against a plain single-model server.
func TestShardWireEndpoints(t *testing.T) {
	s := newServer(t, true)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, shard.PathMeta, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("meta status = %d: %s", rec.Code, rec.Body)
	}
	var meta shard.Meta
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Dim != 2 || meta.Live == 0 || meta.MaxTheta <= 0 {
		t.Fatalf("meta = %+v", meta)
	}

	scan, _ := json.Marshal(shard.ScanRequest{Center: []float64{0.5, 0.5}, Theta: 0.2, Models: true})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shard.PathScan, bytes.NewReader(scan)))
	if rec.Code != http.StatusOK {
		t.Fatalf("scan status = %d: %s", rec.Code, rec.Body)
	}
	var res core.ScatterResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Live != meta.Live || (len(res.Contribs) == 0 && res.WinnerModel == nil) {
		t.Fatalf("scan result = %+v", res)
	}

	// A value-prediction term that overflows at a far data point (to ±Inf,
	// or to NaN where the terms' signs differ) cannot travel as JSON: the scan answers 500 and names the cause, never 200
	// with an empty body.
	for _, at := range [][]float64{{1e308, 1e308}, {1e308, -1e308}, {-1e308, 1e308}, {-1e308, -1e308}} {
		body, _ := json.Marshal(shard.ScanRequest{Center: []float64{0.5, 0.5}, Theta: 0.2, At: at})
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shard.PathScan, bytes.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); rec.Code != http.StatusInternalServerError || err != nil ||
			!strings.Contains(eb.Error, "unsupported value") {
			t.Fatalf("scan at %v: status %d, body %q, want 500 naming the non-finite value", at, rec.Code, rec.Body)
		}
	}

	trainBody, _ := json.Marshal(shard.TrainShardRequest{Pairs: []shard.WirePair{
		{Center: []float64{0.3, 0.7}, Theta: 0.1, Answer: 1.5},
	}})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shard.PathTrain, bytes.NewReader(trainBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("shard train status = %d: %s", rec.Code, rec.Body)
	}
	var tr shard.TrainShardResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Steps != meta.Steps+1 || tr.MaxTheta <= 0 {
		t.Fatalf("shard train response = %+v (was at %d steps)", tr, meta.Steps)
	}

	// A model-less server refuses scans with 409 and meta with 503.
	bare := newServer(t, false)
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, shard.PathScan, bytes.NewReader(scan)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("model-less scan status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, shard.PathMeta, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("model-less meta status = %d", rec.Code)
	}
}

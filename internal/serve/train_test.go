package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"llmq/internal/core"
	"llmq/internal/shard"
	"llmq/internal/wal"
)

func postTrain(t *testing.T, s *Server, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/train", bytes.NewReader(b))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func trainPairs(n int) []TrainPair {
	pairs := make([]TrainPair, n)
	for i := range pairs {
		f := float64(i) / float64(n)
		pairs[i] = TrainPair{Center: []float64{f, 1 - f}, Theta: 0.1, Answer: 2 * f}
	}
	return pairs
}

func TestTrainEndpoint(t *testing.T) {
	s := newServer(t, true)
	before := s.backend.pair().Model().Steps()
	rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(10)})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp TrainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 10 || resp.Steps != before+10 {
		t.Errorf("response %+v, want 10 accepted on top of %d steps", resp, before)
	}
	if resp.Durable {
		t.Error("plain in-memory server reported durable training")
	}
	if s.backend.pair().Model().Steps() != before+10 {
		t.Errorf("model advanced to %d steps, want %d", s.backend.pair().Model().Steps(), before+10)
	}
}

func TestTrainEndpointErrors(t *testing.T) {
	s := newServer(t, true)
	// Wrong method.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/train", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /train: status %d", rec.Code)
	}
	// No model to train.
	if rec := postTrain(t, newServer(t, false), TrainRequest{Pairs: trainPairs(1)}); rec.Code != http.StatusConflict {
		t.Errorf("modelless /train: status %d, want 409", rec.Code)
	}
	// Malformed body.
	req := httptest.NewRequest(http.MethodPost, "/train", bytes.NewReader([]byte("{")))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", rec.Code)
	}
	// Empty and oversized batches.
	if rec := postTrain(t, s, TrainRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", rec.Code)
	}
	if rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(maxTrainPairs + 1)}); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", rec.Code)
	}
	// Dimension mismatch inside a pair.
	bad := TrainRequest{Pairs: []TrainPair{{Center: []float64{0.5}, Theta: 0.1, Answer: 1}}}
	if rec := postTrain(t, s, bad); rec.Code != http.StatusBadRequest {
		t.Errorf("dim-mismatched pair: status %d", rec.Code)
	}
}

// TestTrainEndpointDurable routes /train through a Durable and checks the
// pairs actually reach the WAL: a recovery from the data directory sees them.
func TestTrainEndpointDurable(t *testing.T) {
	dir := t.TempDir()
	plain := newServer(t, false)
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.1
	opts := core.DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}}
	d, err := core.Recover(dir, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurable(plain.exec, d)
	if err != nil {
		t.Fatal(err)
	}
	rec := postTrain(t, s, TrainRequest{Pairs: trainPairs(25)})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp TrainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Durable || resp.Accepted != 25 {
		t.Errorf("response %+v, want 25 durable accepts", resp)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := core.Recover(dir, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Model().Steps() != 25 {
		t.Errorf("recovered %d steps, want 25", d2.Model().Steps())
	}
}

// TestConcurrentTrainAcceptedSumsToSteps: under concurrent /train clients
// every ack must report exactly the pairs its own batch advanced the model
// by — the count is taken under the model's writer lock, not derived from a
// step snapshot another trainer can move. A non-converging model (Γ
// threshold 1e-300) absorbs every pair, so each ack accepts its full batch
// and the acks sum to the steps the model advanced. The sharded case is a
// guard rather than a reproduction: shard.Sharded serializes whole batches
// under its own writer lock, which happened to hide the miscount there.
func TestConcurrentTrainAcceptedSumsToSteps(t *testing.T) {
	const clients, batches, batchPairs = 8, 40, 64
	freshModel := func(t *testing.T) *core.Model {
		cfg := core.DefaultConfig(2)
		cfg.Vigilance = 0.25
		cfg.Gamma = 1e-300
		m, err := core.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := func(t *testing.T) *Server {
		s, err := New(newShardedExecutor(t), freshModel(t))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name, path string
		build      func(t *testing.T) *Server
	}{
		{"plain", "/train", plain},
		{"shard protocol", shard.PathTrain, plain},
		{"sharded", "/train", func(t *testing.T) *Server {
			part, backends := newShardParts(t, 4)
			for i := range backends {
				backends[i] = shard.NewLocal(freshModel(t))
			}
			sh, err := shard.New(part, backends)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSharded(newShardedExecutor(t), sh)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			bodies := make([][]byte, clients*batches)
			for i := range bodies {
				bodies[i] = shardedTrainBody(t, batchPairs, int64(i))
			}
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						rec := httptest.NewRecorder()
						body := bytes.NewReader(bodies[c*batches+b])
						s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
						var resp TrainResponse // /shard/train's body shares the "accepted" field
						if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
							t.Errorf("client %d batch %d: status %d, %v: %s", c, b, rec.Code, err, rec.Body)
							return
						}
						if resp.Accepted != batchPairs {
							t.Errorf("client %d batch %d: accepted %d, want %d", c, b, resp.Accepted, batchPairs)
						}
						accepted.Add(int64(resp.Accepted))
					}
				}(c)
			}
			wg.Wait()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/model", nil))
			var info ModelInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatal(err)
			}
			steps := info.Steps
			if steps != clients*batches*batchPairs {
				t.Errorf("the model advanced %d steps, want %d", steps, clients*batches*batchPairs)
			}
			if got := accepted.Load(); got != int64(steps) {
				t.Errorf("acks accepted %d pairs in total, the model advanced %d steps", got, steps)
			}
		})
	}
}

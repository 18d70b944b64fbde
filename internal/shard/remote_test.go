package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"llmq/internal/core"
	"llmq/internal/index"
)

// shardHandler serves the shard wire protocol over a local backend — the
// minimal HTTP twin of the real server's /shard/* handlers, so the Remote
// client and the JSON round trip are testable without the serving tier.
func shardHandler(l *Local) http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc(PathScan, func(w http.ResponseWriter, r *http.Request) {
		var req ScanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := l.Scan(r.Context(), core.Query{Center: req.Center, Theta: req.Theta}, req.At, req.Models)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, res)
	})
	mux.HandleFunc(PathMeta, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, l.Stats())
	})
	mux.HandleFunc(PathTrain, func(w http.ResponseWriter, r *http.Request) {
		var req TrainShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pairs := make([]core.TrainingPair, len(req.Pairs))
		for i, p := range req.Pairs {
			pairs[i] = core.TrainingPair{Query: core.Query{Center: p.Center, Theta: p.Theta}, Answer: p.Answer}
		}
		st, err := l.Train(r.Context(), pairs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, TrainShardResponse{TrainStats: st, MaxTheta: l.MaxTheta()})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, l.Health(r.Context()))
	})
	return mux
}

// TestRemoteShardBitIdentity is the distributed half of the bit-identity
// contract: a router scattering over HTTP shards must produce exactly the
// local scatter's floats — Go's float64 JSON round trip is exact — which
// are themselves the union model's floats. Training flows through the
// remote path too, so the models behind both sets stay the same objects.
func TestRemoteShardBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	seed := stream(400, 2, rng)
	local := newTestSet(t, 2, 3, seed)
	ctx := context.Background()

	remotes := make([]Backend, local.Shards())
	for i, b := range local.backends {
		ts := httptest.NewServer(shardHandler(b.(*Local)))
		defer ts.Close()
		r := NewRemote(ts.URL, nil, nil)
		if err := r.Prime(ctx, 2); err != nil {
			t.Fatal(err)
		}
		remotes[i] = r
	}
	router, err := New(local.Partition(), remotes)
	if err != nil {
		t.Fatal(err)
	}

	// Train through the router: the pairs cross the wire, land in the same
	// models the local set fronts, and the train responses grow the remote
	// routing bounds.
	if _, err := router.TrainBatch(ctx, seed); err != nil {
		t.Fatal(err)
	}
	st := router.Stats()
	if st.Steps != len(seed) || st.Live == 0 {
		t.Fatalf("remote train left Stats %+v", st)
	}
	for i, b := range remotes {
		if got, want := b.MaxTheta(), local.backends[i].MaxTheta(); got < want {
			t.Fatalf("shard %d cached bound %v below the true bound %v", i, got, want)
		}
	}

	ref := unionOf(t, local)
	v := ref.View()
	r := router.Reader(ctx)
	for _, q := range queryMix(2, 200, rng) {
		want, err := v.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.PredictMean(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %+v: remote mean %v, union %v", q, got, want)
		}
		at := []float64{rng.Float64(), rng.Float64()}
		wantVal, err := v.PredictValue(q, at)
		if err != nil {
			t.Fatal(err)
		}
		gotVal, err := r.PredictValue(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if gotVal != wantVal {
			t.Fatalf("query %+v: remote value %v, union %v", q, gotVal, wantVal)
		}
		wantModels, err := v.Regression(q)
		if err != nil {
			t.Fatal(err)
		}
		gotModels, err := r.Regression(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotModels) != len(wantModels) {
			t.Fatalf("query %+v: remote regression %d models, union %d", q, len(gotModels), len(wantModels))
		}
		for j := range gotModels {
			if gotModels[j].Weight != wantModels[j].Weight || gotModels[j].Intercept != wantModels[j].Intercept {
				t.Fatalf("query %+v model %d: remote %+v, union %+v", q, j, gotModels[j], wantModels[j])
			}
		}
	}
}

// TestReaderCarriesContext checks the Reader's one contract: the context it
// is bound to reaches the shard scans, so a cancelled request stops the
// scatter with context.Canceled instead of answering.
func TestReaderCarriesContext(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	m, err := core.NewModel(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(stream(200, 2, rng)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(shardHandler(NewLocal(m)))
	defer ts.Close()
	remote := NewRemote(ts.URL, nil, nil)
	if err := remote.Prime(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	part, err := index.NewPartition(2, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(part, []Backend{remote})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Center: []float64{0.5, 0.5}, Theta: 0.1}
	if _, err := s.Reader(context.Background()).PredictMean(q); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Reader(ctx).PredictMean(q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestRemoteFollowerSpreadAndFailover checks the read path across replicas:
// scans round-robin over primary and followers (all serving the same
// model), keep answering when a follower is down, and training goes to the
// primary only.
func TestRemoteFollowerSpreadAndFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	m, err := core.NewModel(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLocal(m)
	var primaryScans, followerScans, primaryTrains int
	count := func(h http.Handler, scans, trains *int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case PathScan:
				*scans++
			case PathTrain:
				*trains++
			}
			h.ServeHTTP(w, r)
		})
	}
	var followerTrains int
	primary := httptest.NewServer(count(shardHandler(l), &primaryScans, &primaryTrains))
	defer primary.Close()
	follower := httptest.NewServer(count(shardHandler(l), &followerScans, &followerTrains))
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	r := NewRemote(primary.URL, []string{follower.URL, dead.URL}, nil)
	ctx := context.Background()
	if err := r.Prime(ctx, 2); err != nil {
		t.Fatal(err)
	}
	pairs := stream(100, 2, rng)
	if _, err := r.Train(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	if primaryTrains != 1 || followerTrains != 0 {
		t.Fatalf("training hit primary %d times, follower %d; must be primary-only", primaryTrains, followerTrains)
	}
	q := core.Query{Center: []float64{0.5, 0.5}, Theta: 0.3}
	for i := 0; i < 12; i++ {
		if _, err := r.Scan(ctx, q, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if primaryScans == 0 || followerScans == 0 {
		t.Fatalf("scans did not spread: primary %d, follower %d", primaryScans, followerScans)
	}
	// The dead replica absorbed ~a third of the round-robin starts; every
	// scan still succeeded by failing over.
	if primaryScans+followerScans < 12 {
		t.Fatalf("only %d+%d scans landed; failover lost requests", primaryScans, followerScans)
	}

	// Health reflects the wire: the primary is ready, a dead shard is not.
	if h := r.Health(ctx); h.Status != "ready" {
		t.Fatalf("healthy remote reports %+v", h)
	}
	down := NewRemote(dead.URL, nil, nil)
	if h := down.Health(ctx); h.Status != "unreachable" {
		t.Fatalf("dead remote reports %+v", h)
	}
	// Priming against a dead shard fails rather than wiring a blind route.
	if err := down.Prime(ctx, 2); err == nil {
		t.Fatal("Prime against a dead shard succeeded")
	}
	// A dim-mismatched shard is refused with ErrDimension.
	if err := r.Prime(ctx, 7); err == nil {
		t.Fatal("Prime accepted a dim mismatch")
	}
}

// TestManifestRoundTrip checks the shards.json layout file a router reads
// with -partition: a marshalled manifest reads back routing exactly as its
// partition does, and inconsistent or missing documents are refused.
func TestManifestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	flat := make([]float64, 0, 600)
	for i := 0; i < 300; i++ {
		flat = append(flat, rng.Float64(), rng.Float64())
	}
	part, err := index.NewPartition(2, 4, flat, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + ManifestName
	write := func(m Manifest) {
		t.Helper()
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(Manifest{Dim: 2, Shards: 4, Part: part})
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 2 || got.Shards != 4 || got.Part.Leaves() != 4 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if got.Part.Locate(x) != part.Locate(x) {
			t.Fatalf("decoded partition routes %v differently", x)
		}
	}
	// Inconsistent documents are rejected.
	write(Manifest{Dim: 2, Shards: 5, Part: part})
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("manifest with wrong shard count accepted")
	}
	if _, err := ReadManifest(t.TempDir() + "/missing.json"); err == nil {
		t.Fatal("missing manifest read succeeded")
	}
}

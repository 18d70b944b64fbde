package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/index"
	"llmq/internal/serve"
	"llmq/internal/shard"
)

// openServe drives the serve subcommand's construction path — the same
// flag parsing, validation and open() cmdServe uses — without binding a
// port. The stores it opened are closed with the test.
func openServe(t *testing.T, args ...string) (*serve.Server, string, error) {
	t.Helper()
	c, err := parseServeFlags(args)
	if err != nil {
		return nil, "", err
	}
	s, closer, info, err := c.open(context.Background())
	if err != nil {
		return nil, "", err
	}
	t.Cleanup(func() {
		if err := closer.Close(); err != nil {
			t.Errorf("closing the server's stores: %v", err)
		}
	})
	return s, info, nil
}

// TestServeSmoke drives the serve subcommand's construction path end to end
// — generate a dataset, train a model, build the HTTP server from the same
// flags cmdServe uses — and smokes the mounted endpoints through httptest.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	model := filepath.Join(dir, "model.bin")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "4000", "-dim", "2", "-seed", "3", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"train", "-data", data, "-a", "0.2", "-pairs", "1500", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}

	s, info, err := openServe(t, "-data", data, "-model", model)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	if !strings.Contains(info, "K=") {
		t.Errorf("server info %q should mention the model size", info)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := `{"sql": "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"}`
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Mean *float64 `json:"mean"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Mean == nil {
		t.Fatalf("APPROX query failed: status %d, body %+v", resp.StatusCode, qr)
	}

	// Without a model, APPROX statements are rejected but the server stands.
	s2, info2, err := openServe(t, "-data", data)
	if err != nil {
		t.Fatalf("buildServer without model: %v", err)
	}
	if !strings.Contains(info2, "without a model") {
		t.Errorf("server info %q should flag the missing model", info2)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("APPROX without model: status %d, want 409", resp.StatusCode)
	}
}

// TestServeGracefulShutdown smokes the serve run loop end to end: a real
// listener answers requests, then a context cancellation (the SIGINT/
// SIGTERM path of cmdServe) makes serveUntil drain and return cleanly, and
// the port stops accepting connections.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "2000", "-dim", "2", "-seed", "5", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, info, err := openServe(t, "-data", data)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var serveOut bytes.Buffer
	go func() { done <- serveUntil(ctx, s, ln, &serveOut, info) }()

	// The server is accepting before serveUntil is asked to stop.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never came up: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	body := `{"sql": ["SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"]}`
	resp, err = http.Post(url+"/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntil returned %v after cancellation, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil did not drain within 5s of cancellation")
	}
	if !strings.Contains(serveOut.String(), "shutting down") {
		t.Errorf("serve output %q should announce the shutdown", serveOut.String())
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("the listener should be closed after shutdown")
	}
}

// TestServeFlagValidation covers the argument error paths.
func TestServeFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"serve"}, &out); err == nil {
		t.Error("serve without -data should error")
	}
	if err := run([]string{"serve", "-data", "/nonexistent.csv"}, &out); err == nil {
		t.Error("serve with a missing dataset should error")
	}
	if err := run([]string{"serve", "-bogusflag"}, &out); err == nil {
		t.Error("unknown flag should error")
	}
	// Every refusal of serveConfig.validate, each recognised by its own
	// message so a combination cannot pass by tripping a different check,
	// and the removed -batch-window/-batch-max-sheet/-shards/-cell flags, which
	// the flag package refuses like any unknown flag.
	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-data is required", []string{"-model", "m.json"}},
		{"-model and -data-dir are mutually exclusive", []string{"-data", "r.csv", "-model", "m.json", "-data-dir", "d"}},
		{"-wal-sync/-snapshot-every need -data-dir", []string{"-data", "r.csv", "-wal-sync", "always"}},
		{"-wal-sync/-snapshot-every need -data-dir", []string{"-data", "r.csv", "-snapshot-every", "64"}},
		{"-follow needs -data-dir", []string{"-data", "r.csv", "-follow", "http://localhost:1"}},
		{"-follow and -model are mutually exclusive", []string{"-data", "r.csv", "-follow", "http://localhost:1", "-data-dir", "d", "-model", "m.json"}},
		{"capacity flags belong to the primary", []string{"-data", "r.csv", "-follow", "http://localhost:1", "-data-dir", "d", "-merge"}},
		{"-promote-after needs -follow", []string{"-data", "r.csv", "-data-dir", "d", "-promote-after", "5s"}},
		{"-route is exclusive with -model, -data-dir and -follow", []string{"-data", "r.csv", "-route", "shard0=http://localhost:1", "-model", "m.json"}},
		{"-route is exclusive with -model, -data-dir and -follow", []string{"-data", "r.csv", "-route", "shard0=http://localhost:1", "-data-dir", "d"}},
		{"-route is exclusive with -model, -data-dir and -follow", []string{"-data", "r.csv", "-route", "shard0=http://localhost:1", "-follow", "http://localhost:1", "-data-dir", "d"}},
		{"-partition needs -route", []string{"-data", "r.csv", "-partition", "shards.json"}},
		{"flag provided but not defined: -batch-window", []string{"-data", "r.csv", "-batch-window", "1ms"}},
		{"flag provided but not defined: -batch-max-sheet", []string{"-data", "r.csv", "-batch-max-sheet", "8"}},
		{"flag provided but not defined: -shards", []string{"-data", "r.csv", "-shards", "2"}},
		{"flag provided but not defined: -cell", []string{"-data", "r.csv", "-cell", "0.1"}},
	} {
		if _, err := parseServeFlags(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseServeFlags([]string{"-data", "r.csv", "-data-dir", "d", "-wal-sync", "none", "-max-prototypes", "8"}); err != nil {
		t.Errorf("a coherent flag set was refused: %v", err)
	}
}

// TestServeOpenShapes boots both single-process model shapes, in memory and
// durable, through the one builder and drives the surface they share:
// /train absorbs a batch, an APPROX statement answers from what was
// trained, /model and /readyz describe it, and the returned closer
// checkpoints cleanly. A reopened durable directory keeps its steps.
func TestServeOpenShapes(t *testing.T) {
	csv := writeTestCSV(t)
	model := filepath.Join(t.TempDir(), "model.bin")
	var out bytes.Buffer
	if err := run([]string{"train", "-data", csv, "-pairs", "300", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	var pairs []serve.TrainPair
	for i := 0; i < 64; i++ {
		f := float64(i) / 64
		pairs = append(pairs, serve.TrainPair{Center: []float64{f, 1 - f}, Theta: 0.1, Answer: 2 * f})
	}
	trainBody, err := json.Marshal(serve.TrainRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	call := func(t *testing.T, s *serve.Server, method, path string, body []byte, into any) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	// drive exercises one opened server and returns its /model body.
	drive := func(t *testing.T, c *serveConfig, wantDurable bool) serve.ModelInfo {
		t.Helper()
		s, closer, _, err := c.open(context.Background())
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var ack serve.TrainResponse
		call(t, s, http.MethodPost, "/train", trainBody, &ack)
		if ack.Durable != wantDurable {
			t.Errorf("/train ack durable=%v, want %v", ack.Durable, wantDurable)
		}
		var ans serve.QueryResponse
		call(t, s, http.MethodPost, "/query", []byte(`{"sql": "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"}`), &ans)
		if ans.Mean == nil || !ans.Approx {
			t.Errorf("APPROX statement answered %+v", ans)
		}
		var info serve.ModelInfo
		call(t, s, http.MethodGet, "/model", nil, &info)
		if !info.Loaded || info.Prototypes == 0 || info.Durable != wantDurable {
			t.Errorf("/model %+v, want a loaded model with durable=%v", info, wantDurable)
		}
		var ready serve.ReadyResponse
		call(t, s, http.MethodGet, "/readyz", nil, &ready)
		if ready.Status != "ready" {
			t.Errorf("/readyz %+v", ready)
		}
		if err := closer.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		return info
	}
	parse := func(t *testing.T, args ...string) *serveConfig {
		t.Helper()
		c, err := parseServeFlags(append([]string{"-data", csv}, args...))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	t.Run("plain", func(t *testing.T) {
		if info := drive(t, parse(t, "-model", model), false); info.Shards != 0 {
			t.Errorf("/model %+v reports shards", info)
		}
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		first := drive(t, parse(t, "-data-dir", dir), true)
		if again := drive(t, parse(t, "-data-dir", dir), true); again.Steps != first.Steps+64 {
			t.Errorf("reopened store has %d steps, want the %d it closed with plus 64", again.Steps, first.Steps)
		}
	})
}

// TestServeShardedDataDirMigration builds the layout the removed
// in-process -shards mode left on disk — DIR/shards.json beside complete
// durable directories DIR/shard-0 and DIR/shard-1 — and walks its
// migration: DIR itself is refused (by serve and by train) with an error
// that names the way out, each shard-N boots as a plain durable directory
// with its own steps, and a -route router over those two servers accepts
// DIR/shards.json as its -partition.
func TestServeShardedDataDirMigration(t *testing.T) {
	csv := writeTestCSV(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	flat := make([]float64, 400)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	part, err := index.NewPartition(2, 2, flat, 0)
	if err != nil {
		t.Fatal(err)
	}
	shardPairs := make([][]core.TrainingPair, 2)
	for i := 0; i < len(flat); i += 2 {
		x := flat[i : i+2]
		id := part.Locate(x)
		shardPairs[id] = append(shardPairs[id], core.TrainingPair{Query: core.Query{Center: x, Theta: 0.1}, Answer: x[0] + x[1]})
	}
	cfg := core.DefaultConfig(2)
	cfg.Vigilance = 0.3
	for i, pairs := range shardPairs {
		d, err := core.Recover(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), cfg, core.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.TrainBatch(pairs); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := json.Marshal(shard.Manifest{Dim: 2, Shards: 2, Part: part})
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, shard.ManifestName)
	if err := os.WriteFile(manifestPath, manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, err := range []error{
		func() error { _, _, err := openServe(t, "-data", csv, "-data-dir", dir); return err }(),
		run([]string{"train", "-data", csv, "-pairs", "10", "-data-dir", dir}, io.Discard),
	} {
		if err == nil || !strings.Contains(err.Error(), "-route") || !strings.Contains(err.Error(), "shard-0") {
			t.Errorf("a -data-dir holding shards.json: error %v, want one naming -route and shard-0", err)
		}
	}

	modelInfo := func(t *testing.T, s http.Handler) serve.ModelInfo {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/model", nil))
		var info serve.ModelInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("/model: status %d: %v", rec.Code, err)
		}
		return info
	}
	var route []string
	for i, pairs := range shardPairs {
		s, _, err := openServe(t, "-data", csv, "-data-dir", filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatalf("shard-%d: %v", i, err)
		}
		if info := modelInfo(t, s); !info.Durable || info.Steps != len(pairs) {
			t.Errorf("shard-%d: /model %+v, want a durable model with its %d steps", i, info, len(pairs))
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		route = append(route, fmt.Sprintf("shard%d=%s", i, ts.URL))
	}
	router, _, err := openServe(t, "-data", csv, "-route", strings.Join(route, ","), "-partition", manifestPath)
	if err != nil {
		t.Fatalf("router over the migrated shards: %v", err)
	}
	if info := modelInfo(t, router); info.Shards != 2 || info.Steps != len(shardPairs[0])+len(shardPairs[1]) {
		t.Errorf("router /model %+v, want 2 shards and every step", info)
	}
}

// writeTestCSV generates a small real dataset, so a flag combination that
// wrongly passed validation would fail on its own merits, not on a missing
// file.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	data := filepath.Join(t.TempDir(), "r1.csv")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "200", "-dim", "2", "-seed", "3", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeFollowFlagValidation: the replication flags have hard
// prerequisites — a mirror directory, no local model, and no local capacity
// overrides (those ship from the primary).
func TestServeFollowFlagValidation(t *testing.T) {
	var out bytes.Buffer
	csv := writeTestCSV(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"follow without data-dir", []string{"serve", "-data", csv, "-follow", "http://localhost:1"}},
		{"follow with model", []string{"serve", "-data", csv, "-follow", "http://localhost:1", "-data-dir", t.TempDir(), "-model", "m.json"}},
		{"follow with capacity flags", []string{"serve", "-data", csv, "-follow", "http://localhost:1", "-data-dir", t.TempDir(), "-max-prototypes", "8"}},
		{"promote-after without follow", []string{"serve", "-data", csv, "-promote-after", "5s", "-data-dir", t.TempDir()}},
	} {
		if err := run(tc.args, &out); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

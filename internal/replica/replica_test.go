package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/replica"
	"llmq/internal/resilience"
	"llmq/internal/serve"
	"llmq/internal/synth"
	"llmq/internal/wal"
)

// trainConfig cannot converge (Γ below float drift, unreachable minimum
// steps), so Steps() counts durable pairs exactly; the tight capacity keeps
// evictions and merges churning mid-stream, which is what makes the
// bit-identity assertions meaningful.
func trainConfig() core.Config {
	return core.Config{
		Dim:                     2,
		Vigilance:               0.5,
		Gamma:                   1e-12,
		MinGammaSteps:           1 << 30,
		InitInterceptWithAnswer: true,
		RateByPrototype:         true,
		MaxPrototypes:           16,
		Eviction:                core.Eviction{HalfLife: 64},
		MergeOnEvict:            true,
	}
}

func genPairs(seed int64, n int) []core.TrainingPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]core.TrainingPair, n)
	for i := range pairs {
		c := []float64{rng.Float64(), rng.Float64()}
		q, err := core.NewQuery(c, 0.3*rng.Float64())
		if err != nil {
			panic(err)
		}
		pairs[i] = core.TrainingPair{Query: q, Answer: c[0] - 2*c[1] + 0.1*rng.NormFloat64()}
	}
	return pairs
}

func newExecutor(t testing.TB) *exec.Executor {
	t.Helper()
	pts, err := synth.Generate(synth.R1Config(500, 2, 31))
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

// primary is an in-process durable serving instance to replicate from.
type primary struct {
	d  *core.Durable
	ts *httptest.Server
}

func newPrimary(t testing.TB, dir string, snapEvery int) *primary {
	t.Helper()
	d, err := core.Recover(dir, trainConfig(), core.DurableOptions{
		WAL:           wal.Options{Mode: wal.SyncNone},
		SnapshotEvery: snapEvery,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewDurable(newExecutor(t), d)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return &primary{d: d, ts: ts}
}

// fastOpts are replica options tuned for test turnaround: short polls and
// an aggressive retry schedule.
func fastOpts(dir, url string) replica.Options {
	return replica.Options{
		Dir:      dir,
		Primary:  url,
		PollWait: 150 * time.Millisecond,
		Backoff:  resilience.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Tries: 2},
	}
}

func startReplica(t testing.TB, opts replica.Options) (*replica.Replica, context.CancelFunc) {
	t.Helper()
	rep, err := replica.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = rep.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return rep, cancel
}

func waitSteps(t testing.TB, rep *replica.Replica, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if st := rep.Status(); st.Steps >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at %d steps, want %d", rep.Status().Steps, want)
}

func hashOf(t *testing.T, m *core.Model) string {
	t.Helper()
	h, err := m.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFollowerCatchUpAndPromote is the happy-path lifecycle: bootstrap from
// the primary's snapshot, stream the live training tail across several
// rotations, match the primary bit for bit, then promote and carry on
// training durably over the mirrored directory.
func TestFollowerCatchUpAndPromote(t *testing.T) {
	pairs := genPairs(71, 1200)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:400]); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	rep, _ := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep, 400)
	// Keep training while the follower streams — records must flow through
	// the live tail, not just the bootstrap snapshot.
	if _, err := p.d.TrainBatch(pairs[400:800]); err != nil {
		t.Fatal(err)
	}
	waitSteps(t, rep, 800)
	if got, want := hashOf(t, rep.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
	st := rep.Status()
	if st.Role != "follower" || !st.Bootstrapped || st.Bootstraps != 1 || st.Diverged != nil {
		t.Fatalf("status = %+v", st)
	}

	// Promote and continue the stream on the new primary.
	d2, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status().Role != "primary" {
		t.Fatalf("role after promotion = %q", rep.Status().Role)
	}
	if _, err := d2.TrainBatch(pairs[800:]); err != nil {
		t.Fatal(err)
	}
	want := hashOf(t, d2.Model())
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// The mirrored directory must recover the full stream on its own.
	d3, err := core.Recover(fdir, trainConfig(), core.DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Model().Steps() != len(pairs) {
		t.Fatalf("recovered %d steps from the promoted mirror, want %d", d3.Model().Steps(), len(pairs))
	}
	if got := hashOf(t, d3.Model()); got != want {
		t.Fatalf("recovered mirror hash %s, want %s", got, want)
	}
	// And equal a reference that never replicated at all.
	ref, err := core.NewModel(trainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if got := hashOf(t, ref); got != want {
		t.Fatalf("reference hash %s, want %s", got, want)
	}
}

// TestFollowerRestartResumesLocally: a stopped follower restarts from its
// own mirror (no snapshot re-ship) and catches up on what it missed.
func TestFollowerRestartResumesLocally(t *testing.T) {
	pairs := genPairs(73, 900)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:300]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	rep, cancel := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep, 300)
	cancel()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on while the follower is down.
	if _, err := p.d.TrainBatch(pairs[300:]); err != nil {
		t.Fatal(err)
	}
	rep2, _ := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep2, len(pairs))
	st := rep2.Status()
	if st.Bootstraps != 0 {
		t.Fatalf("restart re-bootstrapped (%d times) instead of resuming its mirror", st.Bootstraps)
	}
	if got, want := hashOf(t, rep2.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
}

// TestFollowerRebootstrapsWhenCursorGone: a follower that was down long
// enough for the primary to GC its generation gets 410 and rebuilds from a
// fresh snapshot instead of failing forever.
func TestFollowerRebootstrapsWhenCursorGone(t *testing.T) {
	pairs := genPairs(79, 1200)
	p := newPrimary(t, t.TempDir(), 50)
	if _, err := p.d.TrainBatch(pairs[:100]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	rep, cancel := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep, 100)
	cancel()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	// Many small batches force many rotations, so the follower's generation
	// is GCed out from under its cursor (retention is two generations).
	for i := 100; i < len(pairs); i += 50 {
		if _, err := p.d.TrainBatch(pairs[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	rep2, _ := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep2, len(pairs))
	if st := rep2.Status(); st.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want exactly 1 (410 recovery)", st.Bootstraps)
	}
	if got, want := hashOf(t, rep2.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
}

// TestCapacityChangeReplicates: a runtime SetCapacity on the primary is an
// admin WAL record, so it ships and re-caps the follower at exactly its
// point in the stream.
func TestCapacityChangeReplicates(t *testing.T) {
	pairs := genPairs(83, 600)
	p := newPrimary(t, t.TempDir(), 1<<30)
	fdir := t.TempDir()
	rep, _ := startReplica(t, fastOpts(fdir, p.ts.URL))
	if _, err := p.d.TrainBatch(pairs[:200]); err != nil {
		t.Fatal(err)
	}
	if err := p.d.SetCapacity(8, core.Eviction{HalfLife: 32}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.d.TrainBatch(pairs[200:]); err != nil {
		t.Fatal(err)
	}
	waitSteps(t, rep, len(pairs))
	if got := rep.Model().Config().MaxPrototypes; got != 8 {
		t.Fatalf("follower capacity %d, want 8", got)
	}
	if got, want := hashOf(t, rep.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
}

// TestDivergedFollowerRefusesPromotion injects the fault replication exists
// to catch: the follower's model is perturbed behind the replica's back, the
// next boundary hash check flags it, and promotion is refused with a
// descriptive error until a re-bootstrap has cleaned it up.
func TestDivergedFollowerRefusesPromotion(t *testing.T) {
	pairs := genPairs(89, 400)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:50]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	opts := fastOpts(fdir, p.ts.URL)
	// A slow retry schedule holds the diverged state open long enough to
	// assert on before the automatic re-bootstrap clears it.
	opts.Backoff = resilience.Backoff{Base: 2 * time.Second, Max: 2 * time.Second, Tries: 1}
	rep, _ := startReplica(t, opts)
	waitSteps(t, rep, 50)

	// Fork the follower: train one pair locally that the primary never saw.
	if _, err := rep.Model().TrainBatch(pairs[399:]); err != nil {
		t.Fatal(err)
	}
	// Drive the primary across a rotation boundary; the shipped bump makes
	// the follower verify its (now forked) state hash.
	if _, err := p.d.TrainBatch(pairs[50:250]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for rep.Status().Diverged == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := rep.Status()
	if st.Diverged == nil {
		t.Fatal("forked follower was never flagged as diverged")
	}
	if _, err := rep.Promote(); err == nil {
		t.Fatal("diverged follower accepted promotion")
	} else if !strings.Contains(err.Error(), "refusing promotion") || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("promotion refusal is not descriptive: %v", err)
	}
	// The re-bootstrap heals it: divergence clears, the stream catches up,
	// and promotion becomes possible again.
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := rep.Status(); st.Diverged == nil && st.Bootstraps >= 2 && st.Steps >= 250 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := rep.Status(); st.Diverged != nil || st.Steps < 250 {
		t.Fatalf("follower did not heal: %+v", st)
	}
	if got, want := hashOf(t, rep.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("healed follower hash %s, primary %s", got, want)
	}
	if _, err := rep.Promote(); err != nil {
		t.Fatalf("healed follower refused promotion: %v", err)
	}
}

// TestAutoPromoteOnPrimaryLoss: with PromoteAfter set, losing the primary
// past the grace window turns the follower into a primary on its own.
func TestAutoPromoteOnPrimaryLoss(t *testing.T) {
	pairs := genPairs(97, 300)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(t.TempDir(), p.ts.URL)
	opts.PromoteAfter = 300 * time.Millisecond
	promoted := make(chan *core.Durable, 1)
	opts.OnPromote = func(d *core.Durable) { promoted <- d }
	rep, _ := startReplica(t, opts)
	waitSteps(t, rep, len(pairs))
	want := hashOf(t, p.d.Model())
	p.ts.Close() // the primary vanishes

	select {
	case d := <-promoted:
		if got := hashOf(t, d.Model()); got != want {
			t.Fatalf("auto-promoted hash %s, want %s", got, want)
		}
		if rep.Status().Role != "primary" {
			t.Fatalf("role = %q after auto-promotion", rep.Status().Role)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("follower never auto-promoted after losing the primary")
	}
}

// TestServeFollowerEndpoints covers the follower's HTTP surface: /readyz
// roles and lag, /train's 421 redirect-by-error, and POST /promote flipping
// the instance writable in place.
func TestServeFollowerEndpoints(t *testing.T) {
	pairs := genPairs(101, 200)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	rep, _ := startReplica(t, fastOpts(t.TempDir(), p.ts.URL))
	fs, err := serve.NewFollower(newExecutor(t), rep)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fs)
	t.Cleanup(fts.Close)
	waitSteps(t, rep, len(pairs))

	var ready serve.ReadyResponse
	getJSON(t, fts.URL+"/readyz", http.StatusOK, &ready)
	if ready.Role != "follower" || ready.ReplicationLag == nil {
		t.Fatalf("readyz = %+v", ready)
	}

	// Local training is misdirected: the follower names its primary.
	body := bytes.NewReader([]byte(`{"pairs":[{"center":[0.5,0.5],"theta":0.1,"answer":1}]}`))
	resp, err := http.Post(fts.URL+"/train", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("/train on a follower = %d, want 421", resp.StatusCode)
	}
	if !strings.Contains(string(msg), p.ts.URL) {
		t.Fatalf("421 body does not name the primary: %s", msg)
	}

	// APPROX queries answer from the replicated model meanwhile.
	q := bytes.NewReader([]byte(`{"sql":"SELECT APPROX AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)"}`))
	resp, err = http.Post(fts.URL+"/query", "application/json", q)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("APPROX query on a follower = %d, want 200", resp.StatusCode)
	}

	// Promote over HTTP; the instance becomes a writable primary in place.
	resp, err = http.Post(fts.URL+"/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/promote = %d, want 200", resp.StatusCode)
	}
	getJSON(t, fts.URL+"/readyz", http.StatusOK, &ready)
	if ready.Role != "primary" {
		t.Fatalf("role after /promote = %q", ready.Role)
	}
	resp, err = http.Post(fts.URL+"/train", "application/json",
		bytes.NewReader([]byte(`{"pairs":[{"center":[0.5,0.5],"theta":0.1,"answer":1}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/train after promotion = %d, want 200", resp.StatusCode)
	}
	if d := rep.Durable(); d == nil || d.Model().Steps() != len(pairs)+1 {
		t.Fatalf("promoted durable did not take the trained pair")
	}
	if err := rep.Durable().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeReadyzBootstrapping: a follower that cannot reach its primary
// reports not-ready with the bootstrapping status rather than lying.
func TestServeReadyzBootstrapping(t *testing.T) {
	rep, _ := startReplica(t, fastOpts(t.TempDir(), "http://127.0.0.1:1")) // nothing listens there
	fs, err := serve.NewFollower(newExecutor(t), rep)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fs)
	t.Cleanup(fts.Close)
	var ready serve.ReadyResponse
	getJSON(t, fts.URL+"/readyz", http.StatusServiceUnavailable, &ready)
	if ready.Status != "bootstrapping" || ready.Role != "follower" {
		t.Fatalf("readyz = %+v", ready)
	}
}

// TestReplicateWALProtocol exercises the wire contract directly: data
// responses advance the cursor by the body length, an up-to-date cursor
// gets 204 within the poll budget, and a nonsense cursor gets 410.
func TestReplicateWALProtocol(t *testing.T) {
	pairs := genPairs(103, 50)
	p := newPrimary(t, t.TempDir(), 1<<30)
	if _, err := p.d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := p.d.Sync(); err != nil {
		t.Fatal(err)
	}
	get := func(q string) *http.Response {
		t.Helper()
		resp, err := http.Get(p.ts.URL + replica.PathWAL + q)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get("?gen=0&off=0")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("cold cursor: status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get(replica.HeaderNextGen) != "0" ||
		resp.Header.Get(replica.HeaderNextOff) != fmt.Sprint(len(body)) {
		t.Fatalf("cursor headers %s/%s do not match a %d-byte body",
			resp.Header.Get(replica.HeaderNextGen), resp.Header.Get(replica.HeaderNextOff), len(body))
	}
	if resp.Header.Get(replica.HeaderBoot) == "" || resp.Header.Get(replica.HeaderSteps) == "" {
		t.Fatal("missing boot/steps stamps")
	}

	resp = get(fmt.Sprintf("?gen=0&off=%d&wait=30", len(body)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up cursor: status %d, want 204", resp.StatusCode)
	}

	resp = get("?gen=0&off=99999999")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("impossible cursor: status %d, want 410", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d (%s)", url, resp.StatusCode, wantStatus, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerRefusesPlantedSaveSnapshot: a Save file in place of the
// follower's newest mirrored snapshot carries no RLS solver state, so the
// local WAL tail cannot be replayed onto it bit-identically. The follower
// opens its mirror through core.Recover, which refuses the file, and it
// re-bootstraps from the primary instead of resuming on it.
func TestFollowerRefusesPlantedSaveSnapshot(t *testing.T) {
	pairs := genPairs(89, 600)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:300]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	rep, cancel := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep, 300)
	cancel()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := wal.List(fdir)
	if err != nil || len(man.Snapshots) == 0 {
		t.Fatalf("follower mirror holds no snapshot (%v)", err)
	}
	var saved bytes.Buffer
	if err := rep.Model().Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal.SnapshotPath(fdir, man.Snapshots[len(man.Snapshots)-1]), saved.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := p.d.TrainBatch(pairs[300:]); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	opts := fastOpts(fdir, p.ts.URL)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	rep2, _ := startReplica(t, opts)
	waitSteps(t, rep2, len(pairs))
	if st := rep2.Status(); st.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1: the planted Save file was resumed on", st.Bootstraps)
	}
	if got, want := hashOf(t, rep2.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if all := strings.Join(logs, "\n"); !strings.Contains(all, "local mirror unusable") || !strings.Contains(all, "without the RLS solver state") {
		t.Fatalf("the follower did not log refusing its local snapshot:\n%s", all)
	}
}

// TestFollowerRefusesShippedSaveSnapshot: a primary that ships a Save file
// as its snapshot gets it refused — the follower mirrors the bytes, fails to
// load them as a snapshot, and serves nothing rather than a model its WAL
// stream cannot be replayed onto.
func TestFollowerRefusesShippedSaveSnapshot(t *testing.T) {
	m, err := core.NewModel(trainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainBatch(genPairs(97, 200)); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != replica.PathSnapshot {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(replica.HeaderGen, "1")
		w.Header().Set(replica.HeaderBoot, "planted")
		_, _ = w.Write(saved.Bytes())
	}))
	defer fake.Close()

	refused := make(chan string, 1)
	opts := fastOpts(t.TempDir(), fake.URL)
	opts.Logf = func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "does not load") {
			select {
			case refused <- msg:
			default:
			}
		}
	}
	rep, _ := startReplica(t, opts)
	select {
	case msg := <-refused:
		if !strings.Contains(msg, "without the RLS solver state") {
			t.Fatalf("shipped Save file refused for another reason: %s", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the shipped Save file was not refused; status %+v", rep.Status())
	}
	if st := rep.Status(); st.Bootstrapped || st.Bootstraps != 0 {
		t.Fatalf("status after the refusal = %+v, want no model and no bootstrap", st)
	}
}

// copyDir copies the data directory src into a fresh temporary directory
// file by file, the way a crash image of a live process is taken: whatever
// the open store has written so far, nothing it has not.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// waitCursorGen waits until the follower's cursor reaches generation gen,
// i.e. it has followed the primary's rotation into it.
func waitCursorGen(t *testing.T, rep *replica.Replica, gen uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for rep.Status().Cursor.Gen < gen {
		if time.Now().After(deadline) {
			t.Fatalf("follower cursor stuck at %v, want generation %d", rep.Status().Cursor, gen)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerMirrorIsByteIdentical: the mirror is the primary's directory,
// byte for byte. After catch-up across rotations, every follower segment
// equals the primary's segment of the same generation up to the cursor, and
// every snapshot the follower holds — shipped or written by its own
// rotation — equals the primary's.
func TestFollowerMirrorIsByteIdentical(t *testing.T) {
	pairs := genPairs(107, 700)
	pdir, fdir := t.TempDir(), t.TempDir()
	p := newPrimary(t, pdir, 100)
	if _, err := p.d.TrainBatch(pairs[:150]); err != nil {
		t.Fatal(err)
	}
	rep, _ := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep, 150)
	for i := 150; i < len(pairs); i += 50 {
		if _, err := p.d.TrainBatch(pairs[i : i+50]); err != nil {
			t.Fatal(err)
		}
		waitSteps(t, rep, i+50)
		waitCursorGen(t, rep, p.d.Tail().Gen)
	}
	cur := rep.Status().Cursor
	if st := rep.Status(); st.Bootstraps != 1 || cur.Gen < 3 {
		t.Fatalf("status %+v: want one bootstrap and rotations after it", st)
	}
	man, err := wal.List(fdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range man.Segments {
		fb, err := os.ReadFile(wal.SegmentPath(fdir, g))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(wal.SegmentPath(pdir, g))
		if err != nil {
			t.Fatal(err)
		}
		if g == cur.Gen && int64(len(fb)) != cur.Off {
			t.Fatalf("mirror segment %d holds %d bytes, cursor at %v", g, len(fb), cur)
		}
		if g < cur.Gen && len(fb) != len(pb) || len(fb) > len(pb) || !bytes.Equal(fb, pb[:len(fb)]) {
			t.Fatalf("mirror segment %d (%d bytes) differs from the primary's (%d bytes)", g, len(fb), len(pb))
		}
	}
	if len(man.Snapshots) < 2 {
		t.Fatalf("mirror holds snapshots %v, want the rotated ones", man.Snapshots)
	}
	for _, g := range man.Snapshots {
		fb, err := os.ReadFile(wal.SnapshotPath(fdir, g))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(wal.SnapshotPath(pdir, g))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb, pb) {
			t.Fatalf("mirror snapshot %d (%d bytes) differs from the primary's (%d bytes)", g, len(fb), len(pb))
		}
	}
}

// TestFollowerWriteFaultRebootstraps: a failed write to the mirror turns the
// follower's store read-only, and the follower re-bootstraps instead of
// appending the chunk again behind whatever the failed write left. The
// rebuilt mirror catches up, and once promoted its directory recovers every
// pair.
func TestFollowerWriteFaultRebootstraps(t *testing.T) {
	pairs := genPairs(109, 600)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:100]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	opts := fastOpts(fdir, p.ts.URL)
	var writes atomic.Int32
	injected := errors.New("injected: no space left on device")
	opts.WAL = wal.Options{Mode: wal.SyncNone, Fault: func(op string) error {
		if op == "write" && writes.Add(1) == 2 {
			return injected
		}
		return nil
	}}
	rep, _ := startReplica(t, opts)
	waitSteps(t, rep, 100)
	for i := 100; i < 400; i += 50 {
		if _, err := p.d.TrainBatch(pairs[i : i+50]); err != nil {
			t.Fatal(err)
		}
		waitSteps(t, rep, i+50)
	}
	if st := rep.Status(); st.Bootstraps != 2 {
		t.Fatalf("status %+v: want the write fault to cost exactly one re-bootstrap", st)
	}
	if got, want := hashOf(t, rep.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
	d, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs[400:]); err != nil {
		t.Fatal(err)
	}
	want := hashOf(t, d.Model())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := core.Recover(fdir, trainConfig(), core.DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Model().Steps() != len(pairs) {
		t.Fatalf("recovered %d steps from the promoted mirror, want %d", d2.Model().Steps(), len(pairs))
	}
	if got := hashOf(t, d2.Model()); got != want {
		t.Fatalf("recovered mirror hash %s, want %s", got, want)
	}
}

// TestFollowerResumesCrashImage: a copy of a live follower's directory is
// what a crash leaves, and a replica opened on it resumes through
// core.Recover, as a primary's directory does, instead of re-bootstrapping
// — with a torn record at the end of its newest segment, and with its
// newest snapshot unreadable but the previous generation intact.
func TestFollowerResumesCrashImage(t *testing.T) {
	pairs := genPairs(113, 700)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:100]); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	rep, _ := startReplica(t, fastOpts(fdir, p.ts.URL))
	waitSteps(t, rep, 100)
	for i := 100; i < 330; i += 10 {
		if _, err := p.d.TrainBatch(pairs[i : i+10]); err != nil {
			t.Fatal(err)
		}
		waitSteps(t, rep, i+10)
		waitCursorGen(t, rep, p.d.Tail().Gen)
	}
	cur := rep.Status().Cursor
	if cur.Off == 0 {
		t.Fatalf("cursor %v: the newest segment holds no record to tear", cur)
	}
	torn := copyDir(t, fdir)
	stale := copyDir(t, fdir)
	if err := os.Truncate(wal.SegmentPath(torn, cur.Gen), cur.Off-3); err != nil {
		t.Fatal(err)
	}
	man, err := wal.List(stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Snapshots) < 2 || man.Snapshots[len(man.Snapshots)-1] != cur.Gen {
		t.Fatalf("mirror snapshots %v at cursor %v: want the previous generation kept", man.Snapshots, cur)
	}
	if err := os.WriteFile(wal.SnapshotPath(stale, cur.Gen), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := p.d.TrainBatch(pairs[330:]); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{torn, stale} {
		rep2, _ := startReplica(t, fastOpts(dir, p.ts.URL))
		waitSteps(t, rep2, len(pairs))
		if st := rep2.Status(); st.Bootstraps != 0 {
			t.Fatalf("crash image %s re-bootstrapped (%d times) instead of recovering", dir, st.Bootstraps)
		}
		if got, want := hashOf(t, rep2.Model()), hashOf(t, p.d.Model()); got != want {
			t.Fatalf("crash image %s: follower hash %s, primary %s", dir, got, want)
		}
	}
}

// gateProxy fronts a primary. Open, it passes every request through.
// Closed, it answers 410 to the WAL stream — the follower's cursor is gone
// — and to a snapshot request either 503, as a primary that is down, or,
// with stall set, the first half of the primary's snapshot and then
// nothing until the request ends: a bootstrap caught mid-transfer.
type gateProxy struct {
	URL            string
	closed, stall  atomic.Bool
	snapshotsAsked atomic.Int32
}

func newGateProxy(t *testing.T, primaryURL string) *gateProxy {
	t.Helper()
	target, err := url.Parse(primaryURL)
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(target)
	release := make(chan struct{})
	g := &gateProxy{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !g.closed.Load():
			forward.ServeHTTP(w, r)
		case r.URL.Path == replica.PathWAL:
			http.Error(w, "cursor gone", http.StatusGone)
		case r.URL.Path == replica.PathSnapshot && g.stall.Load():
			g.snapshotsAsked.Add(1)
			resp, err := http.Get(primaryURL + replica.PathSnapshot)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for _, h := range []string{replica.HeaderGen, replica.HeaderBoot, replica.HeaderSteps} {
				w.Header().Set(h, resp.Header.Get(h))
			}
			_, _ = w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
			case <-release:
			}
		default:
			if r.URL.Path == replica.PathSnapshot {
				g.snapshotsAsked.Add(1)
			}
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // runs first: no handler outlives the test
	g.URL = ts.URL
	return g
}

// waitSnapshotsAsked waits until the follower has asked the proxy for at
// least n snapshots.
func waitSnapshotsAsked(t *testing.T, g *gateProxy, n int32) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for g.snapshotsAsked.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("the follower asked for %d snapshots, want %d", g.snapshotsAsked.Load(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tempFiles lists the temporary files in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// cursorGone is a follower of a primary with 300 steps, caught up behind a
// gate proxy that has since closed: the follower's cursor is gone (410), so
// it must re-bootstrap, and the primary cannot be reached for a snapshot.
type cursorGone struct {
	p    *primary
	g    *gateProxy
	rep  *replica.Replica
	dir  string // the follower's mirror
	hash string // the primary's state hash at 300 steps
}

func newCursorGone(t *testing.T, opts func(*replica.Options)) cursorGone {
	t.Helper()
	pairs := genPairs(131, 300)
	c := cursorGone{p: newPrimary(t, t.TempDir(), 100), dir: t.TempDir()}
	if _, err := c.p.d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	c.g = newGateProxy(t, c.p.ts.URL)
	o := fastOpts(c.dir, c.g.URL)
	o.Logf = t.Logf
	if opts != nil {
		opts(&o)
	}
	c.rep, _ = startReplica(t, o)
	waitSteps(t, c.rep, len(pairs))
	c.hash = hashOf(t, c.p.d.Model())
	c.g.closed.Store(true)
	return c
}

// promoted checks that d is the old mirror promoted — 300 steps at the
// primary's hash — and that it trains.
func (c cursorGone) promoted(t *testing.T, d *core.Durable) {
	t.Helper()
	if got := hashOf(t, d.Model()); d.Model().Steps() != 300 || got != c.hash {
		t.Fatalf("promoted %d steps at hash %s, want 300 at %s", d.Model().Steps(), got, c.hash)
	}
	if _, err := d.TrainBatch(genPairs(137, 10)); err != nil {
		t.Fatalf("the promoted mirror does not train: %v", err)
	}
	if st := c.rep.Status(); st.Role != "primary" {
		t.Fatalf("status %+v after promotion", st)
	}
	if err := c.rep.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerWithCursorGoneAutoPromotes: a follower whose cursor is gone
// while its primary is down still holds its verified prefix, and past
// PromoteAfter it promotes that prefix — here all 300 steps, at the
// primary's hash.
func TestFollowerWithCursorGoneAutoPromotes(t *testing.T) {
	promoted := make(chan *core.Durable, 1)
	c := newCursorGone(t, func(o *replica.Options) {
		o.PromoteAfter = 300 * time.Millisecond
		o.OnPromote = func(d *core.Durable) { promoted <- d }
	})
	select {
	case d := <-promoted:
		if c.g.snapshotsAsked.Load() == 0 {
			t.Fatal("the follower promoted without trying to re-bootstrap first")
		}
		c.promoted(t, d)
	case <-time.After(20 * time.Second):
		t.Fatalf("the follower never auto-promoted; status %+v", c.rep.Status())
	}
}

// TestFollowerWithCursorGonePromotes: an explicit Promote while the
// follower's re-bootstraps fail promotes the old mirror at the primary's
// hash.
func TestFollowerWithCursorGonePromotes(t *testing.T) {
	c := newCursorGone(t, nil)
	waitSnapshotsAsked(t, c.g, 2)
	d, err := c.rep.Promote()
	if err != nil {
		t.Fatalf("Promote with the cursor gone: %v", err)
	}
	c.promoted(t, d)
}

// TestFollowerWithCursorGoneRebootstraps: without PromoteAfter, the old
// mirror serves through the window, and once the primary answers again the
// follower re-bootstraps (its second bootstrap) and reaches the primary's
// hash.
func TestFollowerWithCursorGoneRebootstraps(t *testing.T) {
	c := newCursorGone(t, nil)
	waitSnapshotsAsked(t, c.g, 2)
	if st := c.rep.Status(); !st.Bootstrapped || st.Steps != 300 || c.rep.Model() == nil {
		t.Fatalf("status %+v in the window: want the old mirror serving 300 steps", st)
	}
	if _, err := c.p.d.TrainBatch(genPairs(139, 200)); err != nil {
		t.Fatal(err)
	}
	c.g.closed.Store(false)
	waitSteps(t, c.rep, 500)
	if st := c.rep.Status(); st.Role != "follower" || st.Bootstraps != 2 {
		t.Fatalf("status %+v: want a follower bootstrapped twice", st)
	}
	if got, want := hashOf(t, c.rep.Model()), hashOf(t, c.p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
}

// TestFollowerPromotesWhileStaging: a Promote issued while a re-bootstrap is
// staging the shipped snapshot stops the transfer and promotes the old
// mirror, leaving no staged file. A crash image taken during the staging
// holds the old generations plus the staged temporary file, and a follower
// booted over it resumes the old mirror — no bootstrap — and catches up.
func TestFollowerPromotesWhileStaging(t *testing.T) {
	c := newCursorGone(t, nil)
	c.g.stall.Store(true)
	deadline := time.Now().Add(20 * time.Second)
	for len(tempFiles(t, c.dir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no staged snapshot appeared in the mirror directory")
		}
		time.Sleep(2 * time.Millisecond)
	}
	image := copyDir(t, c.dir)
	d, err := c.rep.Promote()
	if err != nil {
		t.Fatalf("Promote while staging: %v", err)
	}
	if tmps := tempFiles(t, c.dir); len(tmps) != 0 {
		t.Fatalf("the stopped bootstrap left %v", tmps)
	}
	c.promoted(t, d)

	man, err := wal.List(image)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Snapshots) == 0 || len(tempFiles(t, image)) != 1 {
		t.Fatalf("crash image holds snapshots %v and temp files %v: want the old generations and the staged file",
			man.Snapshots, tempFiles(t, image))
	}
	pairs := genPairs(139, 200)
	if _, err := c.p.d.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	rep2, _ := startReplica(t, fastOpts(image, c.p.ts.URL))
	waitSteps(t, rep2, 300+len(pairs))
	if st := rep2.Status(); st.Bootstraps != 0 {
		t.Fatalf("the crash image re-bootstrapped (%d times) instead of resuming the old mirror", st.Bootstraps)
	}
	if got, want := hashOf(t, rep2.Model()), hashOf(t, c.p.d.Model()); got != want {
		t.Fatalf("resumed follower hash %s, primary %s", got, want)
	}
	if tmps := tempFiles(t, image); len(tmps) != 0 {
		t.Fatalf("boot left the staged file %v", tmps)
	}
}

// TestFailedAutoPromotionKeepsFollowing: a write fault turns the mirror's
// store read-only, and a proxy in front of the primary then answers 503 to
// everything but the WAL stream, so the re-bootstrap cannot fetch a
// snapshot. Past PromoteAfter the automatic promotion of the read-only store
// fails; the follower must stay a follower and keep retrying, so once the
// proxy passes traffic again it bootstraps a second time and catches up
// with the primary.
func TestFailedAutoPromotionKeepsFollowing(t *testing.T) {
	pairs := genPairs(127, 400)
	p := newPrimary(t, t.TempDir(), 100)
	if _, err := p.d.TrainBatch(pairs[:200]); err != nil {
		t.Fatal(err)
	}
	var blocked, failWrites atomic.Bool
	target, err := url.Parse(p.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(target)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blocked.Load() && r.URL.Path != replica.PathWAL {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		forward.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	opts := fastOpts(t.TempDir(), proxy.URL)
	opts.PromoteAfter = 200 * time.Millisecond
	opts.WAL.Fault = func(op string) error {
		if op == "write" && failWrites.Load() {
			return errors.New("injected: input/output error")
		}
		return nil
	}
	failed := make(chan struct{})
	var once sync.Once
	opts.Logf = func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		t.Log(msg)
		if strings.Contains(msg, "auto-promotion failed") {
			once.Do(func() { close(failed) })
		}
	}
	opts.OnPromote = func(*core.Durable) { t.Error("the read-only mirror was promoted") }
	rep, _ := startReplica(t, opts)
	waitSteps(t, rep, 200)

	blocked.Store(true)
	failWrites.Store(true)
	if _, err := p.d.TrainBatch(pairs[200:250]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(20 * time.Second):
		t.Fatalf("no automatic promotion was attempted; status %+v", rep.Status())
	}
	failWrites.Store(false)
	if _, err := p.d.TrainBatch(pairs[250:]); err != nil {
		t.Fatal(err)
	}
	blocked.Store(false)
	waitSteps(t, rep, len(pairs))
	st := rep.Status()
	if st.Role != "follower" || st.Bootstraps != 2 {
		t.Fatalf("status %+v: want a follower bootstrapped twice", st)
	}
	if got, want := hashOf(t, rep.Model()), hashOf(t, p.d.Model()); got != want {
		t.Fatalf("follower hash %s, primary %s", got, want)
	}
}

// Package chaostest is the replication fault-injection harness: a child
// process plays the primary — durable store, HTTP serving, live paced
// training — and the parent keeps one persistent follower replicating
// through a reverse proxy while it SIGKILLs the primary mid-stream, tears
// the unsynced tail of the primary's newest WAL segment between
// incarnations, and lets connections break mid-chunk. Every primary
// restart flips the boot ID, forcing the follower to re-bootstrap; every
// round the stream continues from whatever prefix survived. The exit
// criterion is the strongest one available: the promoted follower's
// canonical state hash equals a never-crashed reference trained on exactly
// the same prefix of the deterministic stream.
package chaostest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"sync"
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

// trainConfig cannot converge, so Steps() counts durable pairs exactly; the
// tight merging capacity keeps slot churn high, which is where replication
// could diverge if replay order or the admin records were mishandled.
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

func newExecutor(t *testing.T) *exec.Executor {
	t.Helper()
	pts, err := synth.Generate(synth.R1Config(300, 2, 31))
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

func stateHash(t *testing.T, m *core.Model) string {
	t.Helper()
	h, err := m.StateHash()
	if err != nil {
		t.Fatalf("state hash: %v", err)
	}
	return h
}

// TestReplChaosChild is the primary the harness SIGKILLs: it recovers the
// shared data directory, serves the replication endpoints on an ephemeral
// port (published through the addr file), trains the deterministic stream
// from the recovered step count through Durable.TrainBatch — the path /train
// runs — in batches of seeded random size 1..64, paced per pair so kills
// keep landing mid-stream, drops the done marker once the stream is
// complete — and then keeps serving, so the follower can finish catching up
// from a live primary.
func TestReplChaosChild(t *testing.T) {
	dir := os.Getenv("LLMQ_REPLCHAOS_DIR")
	if dir == "" {
		t.Skip("replication chaos child entry point; driven by TestReplicationChaos")
	}
	n, _ := strconv.Atoi(os.Getenv("LLMQ_REPLCHAOS_N"))
	seed, _ := strconv.ParseInt(os.Getenv("LLMQ_REPLCHAOS_SEED"), 10, 64)
	snapEvery, _ := strconv.Atoi(os.Getenv("LLMQ_REPLCHAOS_SNAP_EVERY"))
	paceUS, _ := strconv.Atoi(os.Getenv("LLMQ_REPLCHAOS_PACE_US"))
	addrFile := os.Getenv("LLMQ_REPLCHAOS_ADDRFILE")
	done := os.Getenv("LLMQ_REPLCHAOS_DONE")

	d, err := core.Recover(dir, trainConfig(), core.DurableOptions{
		// SyncNone + the parent's tail-chopping stands in for real power
		// loss; SIGKILL alone cannot lose page-cache bytes.
		WAL:           wal.Options{Mode: wal.SyncNone},
		SnapshotEvery: snapEvery,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("child recover: %v", err)
	}
	s, err := serve.NewDurable(newExecutor(t), d)
	if err != nil {
		t.Fatalf("child serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	go func() { _ = http.Serve(ln, s) }()
	// Publish the address atomically so the parent never reads a torn file.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("child addr file: %v", err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatalf("child addr file: %v", err)
	}

	pairs := genPairs(seed, n)
	start := d.Model().Steps()
	sizes := rand.New(rand.NewSource(seed + int64(start)))
	for i := start; i < len(pairs); {
		b := min(len(pairs)-i, 1+sizes.Intn(64))
		if _, err := d.TrainBatch(pairs[i : i+b]); err != nil {
			t.Fatalf("child train: %v", err)
		}
		i += b
		time.Sleep(time.Duration(b*paceUS) * time.Microsecond)
	}
	if err := os.WriteFile(done, []byte("ok"), 0o644); err != nil {
		t.Fatalf("child done marker: %v", err)
	}
	// Keep serving so the follower can drain the tail; the parent kills us.
	time.Sleep(time.Hour)
}

// chopNewestSegment simulates power loss on the primary: up to chop bytes of
// the newest WAL segment vanish (a plain SIGKILL cannot lose them — the page
// cache survives the process). The follower may already hold the chopped
// bytes; the restarted primary's fresh boot ID is what keeps that from
// silently forking the two.
func chopNewestSegment(t *testing.T, dir string, chop int64) {
	t.Helper()
	man, err := wal.List(dir)
	if err != nil || len(man.Segments) == 0 {
		return
	}
	path := wal.SegmentPath(dir, man.Segments[len(man.Segments)-1])
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		return
	}
	size := fi.Size() - chop
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatalf("chop segment: %v", err)
	}
}

// proxyTarget is the one mutable cell of the reverse proxy the follower
// replicates through: each child incarnation swaps its address in, and
// killing a child breaks every in-flight chunk mid-body.
type proxyTarget struct {
	mu   sync.Mutex
	host string
}

func (p *proxyTarget) set(host string) { p.mu.Lock(); p.host = host; p.mu.Unlock() }
func (p *proxyTarget) get() string     { p.mu.Lock(); defer p.mu.Unlock(); return p.host }

// TestReplicationChaos runs the harness. It stays on in -short mode with a
// trimmed stream — replication faults are exactly what CI exists to catch —
// and scales up locally.
func TestReplicationChaos(t *testing.T) {
	n := 4000
	maxRounds := 60
	if testing.Short() {
		n = 1200
		maxRounds = 30
	}
	const (
		seed      = 42
		snapEvery = 97
		paceUS    = 1200
	)
	base := t.TempDir()
	primaryDir := filepath.Join(base, "primary")
	followDir := filepath.Join(base, "follower")
	addrFile := filepath.Join(base, "addr")
	doneMarker := filepath.Join(base, "done")
	pairs := genPairs(seed, n)

	// The follower speaks to a stable URL; the proxy behind it follows the
	// child of the hour. A dead backend surfaces as transport errors and
	// 502s — both retried by the catch-up loop.
	var target proxyTarget
	proxy := &httputil.ReverseProxy{
		Director: func(req *http.Request) {
			req.URL = &url.URL{Scheme: "http", Host: target.get(), Path: req.URL.Path, RawQuery: req.URL.RawQuery}
		},
		ErrorLog: nil,
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pln.Close()
	go func() { _ = http.Serve(pln, proxy) }()

	rep, err := replica.Open(replica.Options{
		Dir:      followDir,
		Primary:  "http://" + pln.Addr().String(),
		PollWait: 200 * time.Millisecond,
		Backoff:  resilience.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Tries: 2},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	repDone := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { defer close(repDone); _ = rep.Run(ctx) }()
	defer func() { cancel(); <-repDone }()

	rng := rand.New(rand.NewSource(11))
	killed := 0
	var child *osexec.Cmd
	var childWait chan error
	startChild := func() {
		t.Helper()
		_ = os.Remove(addrFile)
		var out bytes.Buffer
		child = osexec.Command(os.Args[0], "-test.run", "^TestReplChaosChild$")
		child.Stdout = &out
		child.Stderr = &out
		child.Env = append(os.Environ(),
			"LLMQ_REPLCHAOS_DIR="+primaryDir,
			"LLMQ_REPLCHAOS_ADDRFILE="+addrFile,
			"LLMQ_REPLCHAOS_DONE="+doneMarker,
			fmt.Sprintf("LLMQ_REPLCHAOS_N=%d", n),
			fmt.Sprintf("LLMQ_REPLCHAOS_SEED=%d", seed),
			fmt.Sprintf("LLMQ_REPLCHAOS_SNAP_EVERY=%d", snapEvery),
			fmt.Sprintf("LLMQ_REPLCHAOS_PACE_US=%d", paceUS),
		)
		if err := child.Start(); err != nil {
			t.Fatalf("start child: %v", err)
		}
		childWait = make(chan error, 1)
		go func(c *osexec.Cmd, ch chan error) { ch <- c.Wait() }(child, childWait)
		// Wait for the child to publish its listener, then point the proxy
		// at it. A child that dies this early fails the round loudly.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				target.set(string(b))
				return
			}
			select {
			case werr := <-childWait:
				t.Fatalf("child died before listening: %v\n%s", werr, out.String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("child never published its address\n%s", out.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	killChild := func() {
		_ = child.Process.Kill()
		<-childWait
	}

	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if _, err := os.Stat(doneMarker); err == nil {
			break
		}
		startChild()
		// Let the primary train and the follower stream for a while, then
		// SIGKILL the primary mid-stream — mid-chunk for whatever long poll
		// is in flight through the proxy.
		delay := 100*time.Millisecond + time.Duration(rng.Int63n(int64(500*time.Millisecond)))
		select {
		case werr := <-childWait:
			if werr != nil {
				t.Fatalf("child failed on its own: %v", werr)
			}
		case <-time.After(delay):
			if _, err := os.Stat(doneMarker); err == nil {
				// The stream completed; keep this incarnation as the live
				// primary for the final catch-up.
				break
			}
			killChild()
			killed++
			if rng.Intn(2) == 0 {
				chopNewestSegment(t, primaryDir, 1+rng.Int63n(120))
			}
			continue
		}
		break
	}
	if _, err := os.Stat(doneMarker); err != nil {
		t.Fatalf("child never completed the %d-pair stream in %d rounds", n, rounds)
	}
	if child.ProcessState != nil {
		// The last child exited (clean completion raced the timer); restart
		// one so the follower has a live primary to finish catching up from.
		startChild()
	}
	t.Logf("stream complete after %d rounds, %d kills; follower at %d steps", rounds, killed, rep.Status().Steps)

	// The follower must converge on the full stream from the live primary.
	deadline := time.Now().Add(60 * time.Second)
	for rep.Status().Steps < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := rep.Status().Steps; got != n {
		t.Fatalf("follower converged to %d steps, want %d (status %+v)", got, n, rep.Status())
	}

	// Failover: kill the primary for good and promote the follower.
	killChild()
	d, err := rep.Promote()
	if err != nil {
		t.Fatalf("promotion after primary loss: %v", err)
	}
	got := stateHash(t, d.Model())

	// The chaos proof: bit-identity with a reference that never crashed,
	// never replicated, never recovered.
	ref, err := core.NewModel(trainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if want := stateHash(t, ref); got != want {
		t.Fatalf("promoted follower hash %s, never-crashed reference %s", got, want)
	}
	// And the promoted mirror must stand on its own disk: close it and
	// recover the directory cold.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := core.Recover(followDir, trainConfig(), core.DurableOptions{Logf: t.Logf})
	if err != nil {
		t.Fatalf("recover promoted mirror: %v", err)
	}
	defer d2.Close()
	if h := stateHash(t, d2.Model()); h != got {
		t.Fatalf("cold-recovered mirror hash %s, promoted %s", h, got)
	}
	if killed == 0 {
		t.Log("warning: no primary was killed mid-stream this run")
	}
}

// TestDivergedFollowerRefusesFailover is the guard-rail chaos case: the
// follower's state is forked behind the replica's back, the next boundary
// check flags it, the primary then dies — and promotion must refuse with a
// descriptive error instead of crowning a diverged copy.
func TestDivergedFollowerRefusesFailover(t *testing.T) {
	pairs := genPairs(89, 400)
	dir := t.TempDir()
	d, err := core.Recover(dir, trainConfig(), core.DurableOptions{
		WAL:           wal.Options{Mode: wal.SyncNone},
		SnapshotEvery: 100,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := serve.NewDurable(newExecutor(t), d)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = http.Serve(ln, s) }()
	defer ln.Close()

	if _, err := d.TrainBatch(pairs[:50]); err != nil {
		t.Fatal(err)
	}
	rep, err := replica.Open(replica.Options{
		Dir:      t.TempDir(),
		Primary:  "http://" + ln.Addr().String(),
		PollWait: 150 * time.Millisecond,
		// Slow retries hold the diverged state open across the primary's
		// death below instead of racing into a re-bootstrap.
		Backoff: resilience.Backoff{Base: 5 * time.Second, Max: 5 * time.Second, Tries: 1},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() { defer close(repDone); _ = rep.Run(ctx) }()
	defer func() { cancel(); <-repDone }()

	deadline := time.Now().Add(20 * time.Second)
	for rep.Status().Steps < 50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Fork the follower, then push the primary across a rotation boundary
	// so the shipped bump triggers the hash comparison.
	if _, err := rep.Model().TrainBatch(pairs[399:]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TrainBatch(pairs[50:250]); err != nil {
		t.Fatal(err)
	}
	for rep.Status().Diverged == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rep.Status().Diverged == nil {
		t.Fatal("forked follower was never flagged as diverged")
	}
	ln.Close() // the primary dies; failover pressure is on
	if _, err := rep.Promote(); err == nil {
		t.Fatal("diverged follower accepted promotion")
	} else {
		t.Logf("refusal (as required): %v", err)
		for _, want := range []string{"refusing promotion", "diverged"} {
			if !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Fatalf("refusal error %q does not mention %q", err, want)
			}
		}
	}
}

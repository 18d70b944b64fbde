// Package chaostest attacks a real llmq serving stack — live TCP listener,
// the production timeout/admission configuration path — with the failure
// modes the overload tentpole claims to survive: slow-loris connections,
// mid-body disconnects, floods far past the admission cap, and injected
// WAL write failures. Each test pins the acceptance contract: bounded
// goroutine and memory growth, admitted requests completing within their
// deadline, shed requests answered with well-formed 429/503 + Retry-After,
// and bit-identical recovery once a disk fault clears.
//
// The tests scale down under -short so CI can run the harness on every
// push next to the WAL crashtest.
package chaostest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/resilience"
	"llmq/internal/serve"
	"llmq/internal/synth"
	"llmq/internal/wal"
	"llmq/internal/workload"
)

// scale shrinks an attack dimension under -short: full size locally, small
// in CI smoke runs.
func scale(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// buildEnv loads a synthetic relation into the engine and optionally trains
// a model over it — the serving substrate every chaos server attacks.
func buildEnv(t *testing.T, rows int, withModel bool) (*exec.Executor, *core.Model) {
	t.Helper()
	pts, err := synth.Generate(synth.R1Config(rows, 2, 17))
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
	var m *core.Model
	if withModel {
		gen, err := workload.NewGenerator(workload.GenConfig{
			Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.12, ThetaStdDev: 0.02, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := workload.NewHarness(e, gen)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(2)
		cfg.ResolutionA = 0.1
		m, _, _, err = h.TrainModel(cfg, 1200)
		if err != nil {
			t.Fatal(err)
		}
	}
	return e, m
}

// startServer binds a real TCP listener over the handler with the given
// connection-phase timeouts — the same resilience.NewHTTPServer production
// uses — and returns the base URL. Shutdown is registered as cleanup.
func startServer(t *testing.T, h http.Handler, tmo resilience.ServerTimeouts) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := resilience.NewHTTPServer(h, tmo)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String()
}

// newClient returns an HTTP client whose connection pool dies with the
// test, so idle keep-alive goroutines never pollute another test's
// goroutine accounting.
func newClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{MaxIdleConnsPerHost: 64}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// settleGoroutines polls until the goroutine count falls back to base+slack
// or the deadline passes, then asserts it did — the leak detector behind
// every attack.
func settleGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+slack && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+slack {
		t.Errorf("goroutines: %d at baseline, %d after the attack drained (slack %d) — something leaked", base, n, slack)
	}
}

// heapAlloc reads the live-heap size after a forced GC.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChaosSlowLoris opens a crowd of connections that trickle a partial
// request header and then stall forever. The connection-phase timeouts must
// evict every one of them — the server closes the socket, goroutines
// return to baseline, and a well-behaved probe is answered throughout.
func TestChaosSlowLoris(t *testing.T) {
	e, _ := buildEnv(t, 3000, false)
	s, err := serve.New(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmo := resilience.ServerTimeouts{ReadHeader: 300 * time.Millisecond, Read: 500 * time.Millisecond, Idle: 500 * time.Millisecond}
	url := startServer(t, s, tmo)
	client := newClient(t)
	base := runtime.NumGoroutine()

	n := scale(64, 16)
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		// A partial request line + one header, then silence.
		fmt.Fprintf(c, "POST /query HTTP/1.1\r\nHost: chaos\r\n")
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// A well-behaved client is served while the loris crowd hangs.
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz during slow-loris: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during slow-loris: status %d", resp.StatusCode)
	}

	// Every stalled connection is evicted by the header timeout: the read
	// side observes the server's close well inside 10× the timeout.
	evictDeadline := time.Now().Add(3 * time.Second)
	for _, c := range conns {
		_ = c.SetReadDeadline(evictDeadline)
		if _, err := c.Read(make([]byte, 1)); err == nil {
			// A response byte also means the server gave up on the request.
			continue
		} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			t.Fatal("a slow-loris connection was still open 3s past the 300ms header timeout")
		}
	}
	settleGoroutines(t, base, 12)
}

// TestChaosMidBodyDisconnect declares a body it never finishes sending and
// hangs up mid-POST, repeatedly. The server must absorb every torn request
// without leaking handlers and keep answering.
func TestChaosMidBodyDisconnect(t *testing.T) {
	e, _ := buildEnv(t, 3000, false)
	s, err := serve.New(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmo := resilience.ServerTimeouts{ReadHeader: 300 * time.Millisecond, Read: 500 * time.Millisecond, Idle: 500 * time.Millisecond}
	url := startServer(t, s, tmo)
	client := newClient(t)
	base := runtime.NumGoroutine()

	n := scale(64, 16)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "POST /query HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"sql\": \"SELECT")
		c.Close()
	}
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz after mid-body disconnects: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after mid-body disconnects: status %d", resp.StatusCode)
	}
	settleGoroutines(t, base, 12)
}

// TestChaosFlood slams the query endpoint with 10× the admission capacity
// in flight at once and holds the full acceptance contract: every response
// is a well-formed 200/429/503 (sheds carrying Retry-After), admitted
// requests finish inside the query deadline, some requests are actually
// admitted, and goroutines and live heap return to baseline afterwards.
func TestChaosFlood(t *testing.T) {
	e, _ := buildEnv(t, 5000, false)
	const capacity = 4
	const queryTimeout = 2 * time.Second
	s, err := serve.New(e, nil, serve.WithLimits(serve.Limits{
		QueryConcurrency: capacity,
		AdmitWait:        20 * time.Millisecond,
		QueryTimeout:     queryTimeout,
	}))
	if err != nil {
		t.Fatal(err)
	}
	url := startServer(t, s, resilience.ServerTimeouts{})
	client := newClient(t)
	base := runtime.NumGoroutine()
	heapBefore := heapAlloc()

	rounds := scale(8, 3)
	body := []byte(`{"sql": "SELECT AVG(u) FROM r1 WITHIN 0.3 OF (0.5, 0.5)"}`)
	var ok, shed, malformed atomic.Int64
	var slow atomic.Int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 10*capacity; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					malformed.Add(1)
					return
				}
				defer resp.Body.Close()
				payload, _ := io.ReadAll(resp.Body)
				if !json.Valid(payload) {
					malformed.Add(1)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					// Admitted work completes within its deadline (plus
					// response-write slack).
					if time.Since(start) > queryTimeout+5*time.Second {
						slow.Add(1)
					}
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						malformed.Add(1)
						return
					}
					shed.Add(1)
				case http.StatusGatewayTimeout:
					ok.Add(1) // admitted but out of budget: a valid, bounded outcome
				default:
					malformed.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	total := int64(rounds * 10 * capacity)
	if got := ok.Load() + shed.Load(); got != total || malformed.Load() != 0 {
		t.Fatalf("flood outcomes: %d ok + %d shed + %d malformed, want %d well-formed", ok.Load(), shed.Load(), malformed.Load(), total)
	}
	if ok.Load() == 0 {
		t.Error("the flood starved every request; the admission cap should still admit some")
	}
	if slow.Load() != 0 {
		t.Errorf("%d admitted requests blew far past the %v deadline", slow.Load(), queryTimeout)
	}
	// Drop the keep-alive pool first: idle connections pin a pair of
	// goroutines each on both sides and are not a leak.
	client.CloseIdleConnections()
	settleGoroutines(t, base, 16)
	if after := heapAlloc(); after > heapBefore+64<<20 {
		t.Errorf("live heap grew from %d to %d bytes across the flood", heapBefore, after)
	}
}

// TestChaosBrownoutApproxSurvives saturates the admission queue with heavy
// exact batch sheets and probes through the congestion: EXACT single
// statements must be observed shedding (brownout) while APPROX statements
// keep getting real answers from the model.
func TestChaosBrownoutApproxSurvives(t *testing.T) {
	e, m := buildEnv(t, 20000, true)
	s, err := serve.New(e, m, serve.WithLimits(serve.Limits{
		QueryConcurrency: 4,
		AdmitWait:        500 * time.Millisecond,
		QueryTimeout:     10 * time.Second,
		BrownoutHold:     200 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	url := startServer(t, s, resilience.ServerTimeouts{})
	client := newClient(t)

	// The congestion generators: concurrent sheets of wide exact scans,
	// each costing half the query capacity, looping until told to stop.
	// (Cleanup order matters: raise the stop flag, then wait the senders.)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	sheet := make([]string, 192)
	for i := range sheet {
		sheet[i] = "SELECT AVG(u) FROM r1 WITHIN 0.45 OF (0.5, 0.5)"
	}
	sheetBody, _ := json.Marshal(serve.BatchRequest{SQL: sheet})
	for i := 0; i < scale(16, 8); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Post(url+"/query/batch", "application/json", bytes.NewReader(sheetBody))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	exactBody := []byte(`{"sql": "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"}`)
	approxBody := []byte(`{"sql": "SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"}`)
	var exactShed, approxOK bool
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !(exactShed && approxOK) {
		if resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(exactBody)); err == nil {
			if resp.StatusCode == http.StatusServiceUnavailable {
				exactShed = true
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(approxBody)); err == nil {
			if resp.StatusCode == http.StatusOK {
				var qr serve.QueryResponse
				if json.NewDecoder(resp.Body).Decode(&qr) == nil && qr.Mean != nil {
					approxOK = true
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if !exactShed {
		t.Error("never observed an EXACT statement shed with 503 under sustained saturation")
	}
	if !approxOK {
		t.Error("APPROX statements stopped answering during the brownout")
	}
}

// TestChaosWALFaultReadOnlyAndRecovery injects a WAL write failure under a
// live durable server: /train flips to 503 naming the cause, /readyz
// reports read-only, queries keep serving — and once the process is
// restarted over the same directory, the model is bit-identical to the
// state at the last acknowledged train and writable again.
func TestChaosWALFaultReadOnlyAndRecovery(t *testing.T) {
	dir := t.TempDir()
	e, _ := buildEnv(t, 3000, false)
	var arm atomic.Bool
	walOpts := func() wal.Options {
		return wal.Options{Mode: wal.SyncNone, Fault: func(string) error {
			if arm.Load() {
				return errors.New("injected: device failed")
			}
			return nil
		}}
	}
	cfg := core.DefaultConfig(2)
	cfg.ResolutionA = 0.1
	d, err := core.Recover(dir, cfg, core.DurableOptions{WAL: walOpts(), SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewDurable(e, d)
	if err != nil {
		t.Fatal(err)
	}
	url := startServer(t, s, resilience.ServerTimeouts{})
	client := newClient(t)

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := client.Post(url+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		return resp, payload
	}
	pairs := func(lo, n int) serve.TrainRequest {
		req := serve.TrainRequest{Pairs: make([]serve.TrainPair, n)}
		for i := range req.Pairs {
			f := float64(lo+i) / 512
			req.Pairs[i] = serve.TrainPair{Center: []float64{f, 1 - f}, Theta: 0.1, Answer: 2 * f}
		}
		return req
	}

	if resp, body := post("/train", pairs(0, 200)); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy train: status %d body %s", resp.StatusCode, body)
	}
	var want bytes.Buffer
	if err := d.Model().Save(&want); err != nil {
		t.Fatal(err)
	}

	// The disk fails: concurrent training traffic is refused 503 with the
	// root cause, and none of it dirties the model.
	arm.Store(true)
	var wg sync.WaitGroup
	var non503 atomic.Int64
	for i := 0; i < scale(16, 4); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post("/train", pairs(200+8*i, 8))
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "injected") {
				non503.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if non503.Load() != 0 {
		t.Fatalf("%d faulted /train requests did not answer 503 + root cause", non503.Load())
	}

	// Readiness names the state; queries ride through unaffected.
	resp, body := func() (*http.Response, []byte) {
		resp, err := client.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "read-only") {
		t.Fatalf("readyz during fault: %d %s", resp.StatusCode, body)
	}
	if resp, body := post("/query", serve.QueryRequest{SQL: "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query on read-only server: status %d body %s", resp.StatusCode, body)
	}
	if got := canonicalModel(t, d.Model()); got != want.String() {
		t.Fatal("refused training traffic dirtied the in-memory model")
	}

	// The "restart": close (reporting the failure), recover over the same
	// directory with a healthy disk, and require the acked state bit for
	// bit plus a writable store.
	arm.Store(false)
	if err := d.Close(); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("Close on the failed store: err = %v, want ErrReadOnly", err)
	}
	d2, err := core.Recover(dir, cfg, core.DurableOptions{WAL: wal.Options{Mode: wal.SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := canonicalModel(t, d2.Model()); got != want.String() {
		t.Fatal("recovered model differs from the state at the last acknowledged train")
	}
	if d2.Failure() != nil {
		t.Fatalf("fresh recovery is read-only: %v", d2.Failure())
	}
	q, err := core.NewQuery([]float64{0.5, 0.5}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.TrainBatch([]core.TrainingPair{{Query: q, Answer: 1.0}}); err != nil {
		t.Fatalf("training after recovery: %v", err)
	}
}

// canonicalModel serializes a model through its persistence path — the
// byte-for-byte identity the recovery contract is stated in.
func canonicalModel(t *testing.T, m *core.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

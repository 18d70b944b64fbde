package llmq_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"llmq/internal/experiments"
	"llmq/internal/serve"
)

// The admission and micro-batcher benchmarks: overload at 1×/4×/10× the
// query capacity, closed and open loop, and hot-spot coalescing off and on.
// They stay until bench/ has a workload that drives 16 or more connections,
// which none does yet; that harness change retires them. End-to-end serving
// throughput is bench/'s point_approx workload (PERFORMANCE.md, "How a
// number is made").

// BenchmarkServeOverload measures the overload cost model of the admission
// layer: a closed loop of concurrent clients at 1×, 4× and 10× the query
// admission capacity drives exact batch sheets end to end. ns/op is the
// cost per attempted sheet; the reported p50-ns/p99-ns metrics are the
// latency distribution of the sheets that were ADMITTED (sheds answer in
// microseconds and would mask the tail), and shed/req is the fraction the
// server refused with 429/503. The resilience contract in numbers: p99 of
// admitted work stays flat as offered load grows, and the overflow moves
// into shed/req instead of the latency tail.
func BenchmarkServeOverload(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	// Capacity 1, not the production default: on a small-core runner the Go
	// scheduler serializes an in-process closed loop well below a multi-slot
	// capacity, so a wider budget never saturates and the benchmark would
	// measure scheduler contention instead of the admission layer.
	const capacity = 1
	s, err := serve.New(env.Harness.Exec, m, serve.WithLimits(serve.Limits{
		QueryConcurrency: capacity,
		AdmitWait:        2 * time.Millisecond,
		QueryTimeout:     10 * time.Second,
	}))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	// One request is a sheet of wide exact scans (most of the 20k-row
	// relation per statement), so its service time is an order of magnitude
	// past the 2ms admission budget: single sub-millisecond statements drain
	// the FIFO queue faster than a timed-out waiter can run its shed path,
	// and the semaphore's grant-beats-timeout rule would admit everything.
	var sheet serve.BatchRequest
	for i := 0; i < 32; i++ {
		sheet.SQL = append(sheet.SQL, "SELECT AVG(u) FROM r1 WITHIN 0.45 OF (0.5, 0.5)")
	}
	body, err := json.Marshal(sheet)
	if err != nil {
		b.Fatal(err)
	}
	for _, mult := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("load=%dx", mult), func(b *testing.B) {
			workers := mult * capacity
			// A connection pool as wide as the worker crowd: the default
			// two idle conns per host would serialize the offered load on
			// the client side and hide the server's admission behaviour.
			tr := &http.Transport{MaxIdleConnsPerHost: workers}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			lat := make([][]time.Duration, workers)
			var next, shed atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						start := time.Now()
						resp, err := client.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						switch resp.StatusCode {
						case http.StatusOK:
							// A 200 sheet can still be a refusal: under
							// brownout every EXACT item is answered with a
							// cheap per-item "browned out" error instead of a
							// scan. Count those sheets as sheds, not latency
							// samples, or overload would look like a speedup.
							browned := false
							_, serr := serve.ReadBatchStream(resp.Body, func(f serve.BatchFrame) error {
								if *f.Index == 0 && f.Error != "" {
									browned = true
								}
								return nil
							})
							if serr != nil {
								b.Error(serr)
							} else if browned {
								shed.Add(1)
							} else {
								lat[w] = append(lat[w], time.Since(start))
							}
						case http.StatusTooManyRequests, http.StatusServiceUnavailable:
							shed.Add(1)
						default:
							b.Errorf("status %d", resp.StatusCode)
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			if len(all) > 0 {
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				b.ReportMetric(float64(all[len(all)*50/100]), "p50-ns")
				b.ReportMetric(float64(all[min(len(all)-1, len(all)*99/100)]), "p99-ns")
			}
			b.ReportMetric(float64(shed.Load())/float64(b.N), "shed/req")
		})
	}
}

// BenchmarkServeOverloadOpenLoop is the open-loop variant of
// BenchmarkServeOverload: requests arrive on a fixed schedule regardless of
// how fast earlier ones complete, the way real traffic does. A closed loop
// self-throttles — a slow server slows its own clients, hiding queueing
// collapse — so the open loop is the one that shows coordinated-omission-free
// tails. The benchmark probes the base service time of one sheet, then
// offers arrivals at 0.5× and 2× the implied capacity; p50-ns/p99-ns cover
// the admitted sheets, shed/req the refusals. At 0.5× the shed rate should
// be ~0 and the tail near the base service time; at 2× the overflow must
// move into shed/req while the admitted tail stays bounded.
func BenchmarkServeOverloadOpenLoop(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	const capacity = 1 // see BenchmarkServeOverload on why not the default
	s, err := serve.New(env.Harness.Exec, m, serve.WithLimits(serve.Limits{
		QueryConcurrency: capacity,
		AdmitWait:        2 * time.Millisecond,
		QueryTimeout:     10 * time.Second,
	}))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	var sheet serve.BatchRequest
	for i := 0; i < 32; i++ {
		sheet.SQL = append(sheet.SQL, "SELECT AVG(u) FROM r1 WITHIN 0.45 OF (0.5, 0.5)")
	}
	body, err := json.Marshal(sheet)
	if err != nil {
		b.Fatal(err)
	}
	post := func(client *http.Client) (admitted bool, d time.Duration, err error) {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, 0, err
		}
		defer func() {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		switch resp.StatusCode {
		case http.StatusOK:
			browned := false
			if _, err := serve.ReadBatchStream(resp.Body, func(f serve.BatchFrame) error {
				if *f.Index == 0 && f.Error != "" {
					browned = true
				}
				return nil
			}); err != nil {
				return false, 0, err
			}
			if browned {
				return false, 0, nil // browned-out sheet = shed
			}
			return true, time.Since(start), nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return false, 0, nil
		default:
			return false, 0, fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	// Probe the unloaded service time of one sheet; the arrival schedules
	// below are fractions of the implied capacity 1/base.
	probe := &http.Client{}
	base := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		admitted, d, err := post(probe)
		if err != nil {
			b.Fatal(err)
		}
		if admitted && d < base {
			base = d
		}
	}
	if base == time.Duration(1<<62) {
		b.Fatal("probe sheets were all shed on an idle server")
	}
	for _, tc := range []struct {
		name string
		rate float64 // offered load as a multiple of 1/base
	}{{"rate=0.5x", 0.5}, {"rate=2x", 2}} {
		b.Run(tc.name, func(b *testing.B) {
			interval := time.Duration(float64(base) / tc.rate)
			// Bound in-flight arrivals: past this the client machine itself
			// is the bottleneck, and an unbounded goroutine pile-up at 2×
			// would measure allocator pressure, not the server. An arrival
			// that cannot start because the bound is full is a shed — the
			// server's queue already overflowed onto the client.
			inflight := make(chan struct{}, 512)
			tr := &http.Transport{MaxIdleConnsPerHost: 64}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			var mu sync.Mutex
			var all []time.Duration
			var shed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			tick := time.NewTicker(interval)
			for i := 0; i < b.N; i++ {
				<-tick.C // fixed schedule: fire whether or not earlier sheets returned
				select {
				case inflight <- struct{}{}:
				default:
					shed.Add(1)
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-inflight }()
					admitted, d, err := post(client)
					if err != nil {
						b.Error(err)
						return
					}
					if !admitted {
						shed.Add(1)
						return
					}
					mu.Lock()
					all = append(all, d)
					mu.Unlock()
				}()
			}
			tick.Stop()
			wg.Wait()
			b.StopTimer()
			if len(all) > 0 {
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				b.ReportMetric(float64(all[len(all)*50/100]), "p50-ns")
				b.ReportMetric(float64(all[min(len(all)-1, len(all)*99/100)]), "p99-ns")
			}
			b.ReportMetric(float64(shed.Load())/float64(b.N), "shed/req")
		})
	}
}

// BenchmarkServeBatching measures the /query micro-batcher on hot-spot
// traffic: a closed loop of 32 clients hammering the same wide EXACT scan,
// with coalescing off vs a 1ms batching window. This is the workload the
// batcher is built for — concurrent duplicates collapse to one evaluation
// per sheet over one pinned read surface, so the batched run pays roughly
// one relation scan per sheet instead of one per request. ns/op is the cost
// per request; p50-ns/p99-ns the client-observed latency distribution.
func BenchmarkServeBatching(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	body := []byte(`{"sql": "SELECT AVG(u) FROM r1 WITHIN 0.45 OF (0.5, 0.5)"}`)
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{{"batch=off", 0}, {"batch=on", time.Millisecond}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := serve.New(env.Harness.Exec, m, serve.WithLimits(serve.Limits{
				// Wide enough that admission never caps the sheet the
				// batcher can coalesce; both sides get the same budget.
				QueryConcurrency: 64,
				QueryTimeout:     10 * time.Second,
				BatchWindow:      tc.window,
			}))
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			const workers = 32
			tr := &http.Transport{MaxIdleConnsPerHost: workers}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			lat := make([][]time.Duration, workers)
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						start := time.Now()
						resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
						lat[w] = append(lat[w], time.Since(start))
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			if len(all) > 0 {
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				b.ReportMetric(float64(all[len(all)*50/100]), "p50-ns")
				b.ReportMetric(float64(all[min(len(all)-1, len(all)*99/100)]), "p99-ns")
			}
		})
	}
}

// BenchmarkServeBatchingOpenLoop is the headline number of the micro-batcher:
// open-loop arrivals of the hot statement at 2× the probed unbatched capacity,
// batched vs unbatched. Unbatched, the server is past saturation — the
// overflow must go somewhere, so it shows up as shed/req and a queueing tail
// on the admitted requests. Batched, duplicates collapse and the effective
// per-request cost drops well below the arrival interval, so the same
// offered load is comfortably inside capacity: shed/req collapses toward 0
// and p99-ns lands near the batching window plus one evaluation.
func BenchmarkServeBatchingOpenLoop(b *testing.B) {
	env, m := setupEnv(b, experiments.R1, 20000)
	body := []byte(`{"sql": "SELECT AVG(u) FROM r1 WITHIN 0.45 OF (0.5, 0.5)"}`)
	mk := func(window time.Duration) *httptest.Server {
		s, err := serve.New(env.Harness.Exec, m, serve.WithLimits(serve.Limits{
			QueryConcurrency: 64,
			AdmitWait:        5 * time.Millisecond,
			QueryTimeout:     10 * time.Second,
			BatchWindow:      window,
		}))
		if err != nil {
			b.Fatal(err)
		}
		return httptest.NewServer(s)
	}
	post := func(client *http.Client, url string) (admitted bool, d time.Duration, err error) {
		start := time.Now()
		resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return true, time.Since(start), nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return false, 0, nil
		default:
			return false, 0, fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	// Probe the unloaded, unbatched service time of the hot statement; the
	// arrival schedule below offers 2× the implied capacity to BOTH variants,
	// so the only difference between the sub-benchmarks is coalescing.
	tsProbe := mk(0)
	probe := &http.Client{}
	base := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		admitted, d, err := post(probe, tsProbe.URL)
		if err != nil {
			b.Fatal(err)
		}
		if admitted && d < base {
			base = d
		}
	}
	tsProbe.Close()
	if base == time.Duration(1<<62) {
		b.Fatal("probe queries were all shed on an idle server")
	}
	interval := base / 2 // 2× the probed capacity
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{{"batch=off", 0}, {"batch=on", time.Millisecond}} {
		b.Run(tc.name, func(b *testing.B) {
			ts := mk(tc.window)
			defer ts.Close()
			inflight := make(chan struct{}, 512) // see BenchmarkServeOverloadOpenLoop
			tr := &http.Transport{MaxIdleConnsPerHost: 64}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			var mu sync.Mutex
			var all []time.Duration
			var shed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			tick := time.NewTicker(interval)
			for i := 0; i < b.N; i++ {
				<-tick.C
				select {
				case inflight <- struct{}{}:
				default:
					shed.Add(1)
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-inflight }()
					admitted, d, err := post(client, ts.URL)
					if err != nil {
						b.Error(err)
						return
					}
					if !admitted {
						shed.Add(1)
						return
					}
					mu.Lock()
					all = append(all, d)
					mu.Unlock()
				}()
			}
			tick.Stop()
			wg.Wait()
			b.StopTimer()
			if len(all) > 0 {
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				b.ReportMetric(float64(all[len(all)*50/100]), "p50-ns")
				b.ReportMetric(float64(all[min(len(all)-1, len(all)*99/100)]), "p99-ns")
			}
			b.ReportMetric(float64(shed.Load())/float64(b.N), "shed/req")
		})
	}
}

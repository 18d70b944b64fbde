package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"llmq/internal/core"
	lexec "llmq/internal/exec"
	"llmq/internal/resilience"
	"llmq/internal/serve"
	"llmq/internal/sqlfront"
	"llmq/internal/vector"
	"llmq/internal/wal"
)

// The traced run. Each workload replays a fixed sample of its own generated
// inputs, on one goroutine, through the public functions of every layer on
// its path, and records a span around each call. Nothing inside the program
// is instrumented; the layers are timed from here.

// recorder is a minimal http.ResponseWriter (and Flusher) for driving
// serve.Server in-process; it is reset and reused so its own allocations
// stay out of the handler's counts.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}
func (r *recorder) Flush() {}
func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// postRequest builds the in-process twin of a wire request.
func postRequest(path string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // a constant method and path cannot fail to parse
	}
	return req
}

// queryBody renders the JSON body of POST /query.
func queryBody(sql string) []byte {
	return []byte(`{"sql":"` + sql + `"}`)
}

// allocsPer runs fn n times and returns the heap allocations and bytes per
// call, from the runtime's own counters.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// liveBlock is how many requests each leg of the live one-connection
// comparison sends before the other leg takes its turn; alternating blocks
// expose both legs to the same drift of the machine.
const liveBlock = 100

// liveLegs sends the sample over one idle connection twice, in alternating
// blocks: untraced (timed only) and traced (a root `request` span each). It
// returns the untraced latencies, the root span id of every sample, and
// records the tracing overhead as the relative difference of the two
// medians.
func (r *run) liveLegs(c *child, wires [][]byte, blocks int, lines bool) (untraced []time.Duration, roots []uint64, err error) {
	cn, err := dial(c.addr)
	if err != nil {
		return nil, nil, err
	}
	defer cn.close()
	send := func(w []byte) error {
		var status int
		var err error
		if lines {
			status, err = cn.roundTripLines(w, func([]byte) error { return nil })
		} else {
			status, _, err = cn.roundTrip(w)
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("traced leg: status %d", status)
		}
		return err
	}
	name := r.res.workload
	untraced = make([]time.Duration, len(wires))
	roots = make([]uint64, len(wires))
	var traced []float64
	for lo := 0; lo < len(wires); lo += blocks {
		hi := min(lo+blocks, len(wires))
		for i := lo; i < hi; i++ {
			t := time.Now()
			if err := send(wires[i]); err != nil {
				return nil, nil, err
			}
			untraced[i] = time.Since(t)
		}
		for i := lo; i < hi; i++ {
			var serr error
			id, d := r.tr.time(name, "request", uint64(i+1), 0, func() { serr = send(wires[i]) })
			if serr != nil {
				return nil, nil, serr
			}
			roots[i] = id
			traced = append(traced, us(d))
		}
	}
	un := make([]float64, len(untraced))
	for i, d := range untraced {
		un[i] = us(d)
	}
	mu := median(un)
	r.res.layer["net.client_p50_us"] = mu
	r.res.samples["net.client_p50_us"] = len(un)
	r.res.layer["trace.overhead_share"] = (median(traced) - mu) / mu
	return untraced, roots, nil
}

// rttFloor measures the loopback + net/http floor: GET /healthz over one
// idle connection.
func (r *run) rttFloor(c *child, n int) error {
	cn, err := dial(c.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	wire := appendHTTP(nil, "GET", "/healthz", nil)
	lat := make([]float64, n)
	for i := range lat {
		t := time.Now()
		if _, _, err := cn.roundTrip(wire); err != nil {
			return err
		}
		lat[i] = us(time.Since(t))
	}
	r.res.layer["net.rtt_floor_us"] = median(lat)
	r.res.samples["net.rtt_floor_us"] = n
	return nil
}

// setSpanMetric stores the median duration of a span name as metric
// name+"_us", with its sample count.
func (r *run) setSpanMetric(name string) {
	if d := r.tr.durationsUS(r.res.workload, name); len(d) > 0 {
		r.res.layer[name+"_us"] = median(d)
		r.res.samples[name+"_us"] = len(d)
	}
}

// fixtureMetrics records the timed load stages of the workload's files.
func (r *run) fixtureMetrics() {
	fx := r.fx
	r.res.layer["dataset.read_csv_ms"] = fx.rel.readCSVMS
	r.res.layer["engine.load_ms"] = fx.rel.engineMS
	r.res.layer["exec.build_index_ms"] = fx.rel.indexMS
	if fx.model != nil {
		r.res.layer["core.load_ms"] = fx.loadMS
		r.res.layer["core.k_live"] = float64(fx.model.View().K())
	}
	sem := resilience.NewSemaphore(16, 0)
	const n = 200000
	t := time.Now()
	for i := 0; i < n; i++ {
		if sem.Acquire(context.Background(), 1) == nil {
			sem.Release(1)
		}
	}
	r.res.layer["resilience.acquire_release_ns"] = float64(time.Since(t).Nanoseconds()) / n
}

// replayModel replays one APPROX statement through core.View under parent
// and returns the model call's duration. Every kind also records the winner
// search alone, as a child of the model call.
func (r *run) replayModel(v core.View, st *sqlfront.Statement, trace, parent uint64) (time.Duration, error) {
	name := r.res.workload
	q, err := core.NewQuery(st.Center, st.Theta)
	if err != nil {
		return 0, err
	}
	var id uint64
	var d time.Duration
	switch st.Kind {
	case sqlfront.StmtMean:
		id, d = r.tr.time(name, "core.predict_mean", trace, parent, func() { _, err = v.PredictMean(q) })
	case sqlfront.StmtValue:
		id, d = r.tr.time(name, "core.predict_value", trace, parent, func() { _, err = v.PredictValue(q, st.At) })
	default:
		id, d = r.tr.time(name, "core.regression", trace, parent, func() { _, err = v.Regression(q) })
	}
	if err != nil {
		return 0, err
	}
	r.tr.time(name, "core.winner", trace, id, func() { _, _, err = v.Winner(q) })
	return d, err
}

// modelCounts records the model-side counts over the sample: allocations
// of a mean prediction (the read path pools its scratch, so any allocation
// is a regression) and the mean size of the overlap set W(q).
func (r *run) modelCounts(v core.View, stmts []*sqlfront.Statement) error {
	var qs []core.Query
	overlap := 0
	for _, st := range stmts {
		if !st.Approx {
			continue
		}
		q, err := core.NewQuery(st.Center, st.Theta)
		if err != nil {
			return err
		}
		locals, err := v.Regression(q)
		if err != nil {
			return err
		}
		overlap += len(locals)
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil
	}
	r.res.layer["core.overlap_avg"] = float64(overlap) / float64(len(qs))
	allocs, _ := allocsPer(len(qs), func(i int) { _, _ = v.PredictMean(qs[i]) })
	r.res.layer["core.predict_allocs"] = allocs
	if allocs >= 0.5 && !raceEnabled {
		r.res.fail("core.predict_allocs = %.2f, the read path must not allocate", allocs)
	}
	return nil
}

// traceRead is the traced run of the three read workloads.
func (r *run) traceRead(c *child) error {
	if r.res.workload == wlSheet {
		return r.traceSheets(c)
	}
	name, fx := r.res.workload, r.fx
	n := r.sz.traceN
	gen := func(i uint64) stmt { return pointStmt(r.seed, 0, i) }
	if name == wlExact {
		// EXACT statements cost ~1 ms each and are replayed five times.
		n = min(n, 2000)
		gen = func(i uint64) stmt { return exactStmt(r.seed, 0, i) }
	}
	sqls := make([]string, n)
	wires := make([][]byte, n)
	for i := range sqls {
		sqls[i] = gen(uint64(i)).sql
		wires[i] = queryWire(nil, sqls[i])
	}
	if err := r.rttFloor(c, max(n/2, 100)); err != nil {
		return err
	}
	live, roots, err := r.liveLegs(c, wires, liveBlock, false)
	if err != nil {
		return err
	}
	srv, err := serve.New(fx.rel.exec, fx.model)
	if err != nil {
		return err
	}
	view := fx.model.View()
	rec := newRecorder()
	stmts := make([]*sqlfront.Statement, n)
	var self, overhead []float64
	rows := 0
	exacts := 0
	for i, sql := range sqls {
		trace, body := uint64(i+1), queryBody(sql)
		req := postRequest("/query", body)
		rec.reset()
		hid, hd := r.tr.time(name, "serve.query_handler", trace, roots[i], func() { srv.ServeHTTP(rec, req) })
		if rec.status != http.StatusOK {
			return fmt.Errorf("in-process /query: status %d: %s", rec.status, rec.body.String())
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(rec.body.Bytes(), &resp); err != nil {
			return err
		}
		r.tr.time(name, "serve.json_decode", trace, hid, func() {
			var qr serve.QueryRequest
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&qr)
		})
		if err != nil {
			return err
		}
		var st *sqlfront.Statement
		_, pd := r.tr.time(name, "sqlfront.parse", trace, hid, func() { st, err = sqlfront.Parse(sql) })
		if err != nil {
			return err
		}
		stmts[i] = st
		var md time.Duration
		if st.Approx {
			if md, err = r.replayModel(view, st, trace, hid); err != nil {
				return err
			}
		} else {
			rq := lexec.RadiusQuery{Center: st.Center, Theta: st.Theta, P: st.Norm}
			var eid uint64
			if st.Kind == sqlfront.StmtMean {
				eid, md = r.tr.time(name, "exec.mean", trace, hid, func() { _, err = fx.rel.exec.MeanCtx(context.Background(), rq) })
			} else {
				eid, md = r.tr.time(name, "exec.regression", trace, hid, func() { _, err = fx.rel.exec.RegressionCtx(context.Background(), rq) })
			}
			if err != nil {
				return err
			}
			var ids []int
			r.tr.time(name, "exec.select", trace, eid, func() { ids, err = fx.rel.exec.Select(rq) })
			if err != nil {
				return err
			}
			rows += len(ids)
			exacts++
		}
		r.tr.time(name, "serve.json_encode", trace, hid, func() { err = json.NewEncoder(io.Discard).Encode(&resp) })
		if err != nil {
			return err
		}
		self = append(self, us(hd-pd-md))
		overhead = append(overhead, us(live[i]-hd))
	}
	for _, s := range []string{"serve.query_handler", "serve.json_decode", "serve.json_encode", "sqlfront.parse",
		"core.predict_mean", "core.predict_value", "core.regression", "core.winner", "exec.mean", "exec.regression", "exec.select"} {
		r.setSpanMetric(s)
	}
	r.res.layer["serve.query_self_us"] = median(self)
	r.res.layer["net.query_overhead_us"] = median(overhead)
	if exacts > 0 {
		r.res.layer["exec.rows_selected_avg"] = float64(rows) / float64(exacts)
	}
	reqs := make([]*http.Request, n)
	for i, sql := range sqls {
		reqs[i] = postRequest("/query", queryBody(sql))
	}
	r.res.layer["serve.query_handler_allocs"], r.res.layer["serve.query_handler_bytes"] =
		allocsPer(n, func(i int) { rec.reset(); srv.ServeHTTP(rec, reqs[i]) })
	r.res.layer["sqlfront.parse_allocs"], _ = allocsPer(n, func(i int) { _, _ = sqlfront.Parse(sqls[i]) })
	if err := r.modelCounts(view, stmts); err != nil {
		return err
	}
	r.fixtureMetrics()
	return nil
}

// traceSheets is sheet_wide's traced run: the root of a trace is one live
// sheet, its child the same sheet through the in-process handler, and the
// handler's children the sheet's statements through the parser and the
// model.
func (r *run) traceSheets(c *child) error {
	name, fx := r.res.workload, r.fx
	sheets := make([][]string, r.sz.traceSheets)
	wires := make([][]byte, len(sheets))
	for i := range sheets {
		sheets[i] = sheetStmts(r.seed, fx.centers, 0, uint64(i))
		wires[i] = sheetWire(nil, sheets[i])
	}
	if err := r.rttFloor(c, 1000); err != nil {
		return err
	}
	_, roots, err := r.liveLegs(c, wires, 4, true)
	if err != nil {
		return err
	}
	srv, err := serve.New(fx.rel.exec, fx.model)
	if err != nil {
		return err
	}
	view := fx.model.View()
	rec := newRecorder()
	hids := make([]uint64, len(sheets))
	cpu0 := selfCPUSeconds()
	for i, w := range wires {
		body := w[bytes.Index(w, []byte("\r\n\r\n"))+4:]
		req := postRequest("/query/batch", body)
		rec.reset()
		hids[i], _ = r.tr.time(name, "serve.sheet_handler", uint64(i+1), roots[i], func() { srv.ServeHTTP(rec, req) })
		if rec.status != http.StatusOK {
			return fmt.Errorf("in-process /query/batch: status %d", rec.status)
		}
	}
	nStmts := float64(len(sheets) * sheetSize)
	cpuPer := (selfCPUSeconds() - cpu0) * 1e6 / nStmts
	var stmts []*sqlfront.Statement
	var parseUS, modelUS []float64
	for i, sheet := range sheets {
		for _, sql := range sheet {
			if len(stmts) == r.sz.traceN {
				break
			}
			var st *sqlfront.Statement
			_, pd := r.tr.time(name, "sqlfront.parse", uint64(i+1), hids[i], func() { st, err = sqlfront.Parse(sql) })
			if err != nil {
				return err
			}
			md, err := r.replayModel(view, st, uint64(i+1), hids[i])
			if err != nil {
				return err
			}
			stmts = append(stmts, st)
			parseUS = append(parseUS, us(pd))
			modelUS = append(modelUS, us(md))
		}
	}
	for _, s := range []string{"sqlfront.parse", "core.predict_mean", "core.predict_value", "core.winner"} {
		r.setSpanMetric(s)
	}
	r.res.layer["serve.sheet_handler_us_per_stmt"] = r.tr.medianUS(name, "serve.sheet_handler") / sheetSize
	r.res.samples["serve.sheet_handler_us_per_stmt"] = len(sheets)
	r.res.layer["serve.sheet_cpu_us_per_stmt"] = cpuPer
	r.res.layer["serve.sheet_self_us_per_stmt"] = cpuPer - mean(parseUS) - mean(modelUS)
	r.res.layer["sqlfront.parse_allocs"], _ = allocsPer(len(stmts), func(i int) { _, _ = sqlfront.Parse(sheets[0][i%sheetSize]) })
	if err := r.modelCounts(view, stmts); err != nil {
		return err
	}
	r.res.layer["core.train_us_per_pair"] = fx.buildUSPair
	r.res.samples["core.train_us_per_pair"] = fx.buildPairs

	// The distance kernel under the winner search, on a matrix the size of
	// this model's prototype set: K rows of d+1 columns.
	const rowsK, width = 10000, wideDim + 1
	rg := newRNG(r.seed, tagClusters, 2, 0)
	flat := make([]float64, rowsK*width)
	for i := range flat {
		flat[i] = rg.float()
	}
	q := make([]float64, width)
	const calls = 200
	t := time.Now()
	for k := 0; k < calls; k++ {
		for j := range q {
			q[j] = rg.float()
		}
		vector.ArgminSqDistance(flat, width, q)
	}
	r.res.layer["vector.argmin_ns_per_row"] = float64(time.Since(t).Nanoseconds()) / (calls * rowsK)
	r.res.layer["vector.argmin_bytes_per_call"] = rowsK * width * 8 // computed, not measured
	r.fixtureMetrics()
	return nil
}

// medianOf runs fn n times and returns the median duration in ms.
func medianOf(n int, fn func() error) (float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		out = append(out, msSince(t))
	}
	return median(out), nil
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(b []byte) (int, error) { w.n += int64(len(b)); return len(b), nil }

// traceTrain is train_durable's traced run. The first streamed batches are
// replayed through four instances that all start from the seeded state and
// therefore stay in step: the in-process /train handler over a durable
// store, a durable store alone, a plain in-memory model, and a bare WAL.
// Then the one-off costs are timed at the stream's final state: checkpoint,
// state hash, rotation, and recovery of a copy of the killed directory.
func (r *run) traceTrain(killedDir string) error {
	name, fx := r.res.workload, r.fx
	quiet := core.DurableOptions{Logf: func(string, ...any) {}}
	scratch, err := os.MkdirTemp(r.e.tmp, "trace-train-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	open := func(sub string) (*core.Durable, error) {
		dir := filepath.Join(scratch, sub)
		if err := copyDir(fx.seedDir, dir); err != nil {
			return nil, err
		}
		return core.Recover(dir, fx.trainCfg, quiet)
	}
	dh, err := open("handler")
	if err != nil {
		return err
	}
	defer dh.Close()
	dd, err := open("durable")
	if err != nil {
		return err
	}
	defer dd.Close()
	plain, _, err := loadModel(wal.SnapshotPath(fx.seedDir, 1))
	if err != nil {
		return err
	}
	logDir := filepath.Join(scratch, "wal")
	// Group sync with an unreachable batch and interval: Append is the write
	// alone and Sync the one fsync per batch the server's default policy
	// (FlushBatch 256 = one /train batch) pays.
	lg, err := wal.Continue(logDir, wal.Options{FlushBatch: 1 << 30, FlushInterval: time.Hour})
	if err != nil {
		return err
	}
	defer lg.Close()
	srv, err := serve.NewDurable(fx.rel.exec, dh)
	if err != nil {
		return err
	}
	rec := newRecorder()
	nb := min(r.sz.traceSheets, len(fx.stream.batches)-1)
	var self []float64
	appended := 0
	for b := 1; b <= nb; b++ {
		trace, pairs, w := uint64(b), fx.stream.batches[b], fx.stream.wires[b]
		body := w[bytes.Index(w, []byte("\r\n\r\n"))+4:]
		req := postRequest("/train", body)
		rec.reset()
		hid, hd := r.tr.time(name, "serve.train_handler", trace, 0, func() { srv.ServeHTTP(rec, req) })
		if rec.status != http.StatusOK {
			return fmt.Errorf("in-process /train: status %d: %s", rec.status, rec.body.String())
		}
		r.tr.time(name, "serve.json_decode", trace, hid, func() {
			var tr serve.TrainRequest
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&tr)
		})
		if err != nil {
			return err
		}
		did, dd1 := r.tr.time(name, "core.durable_train", trace, hid, func() { _, err = dd.TrainBatch(pairs) })
		if err != nil {
			return err
		}
		r.tr.time(name, "wal.append", trace, did, func() {
			for _, p := range pairs {
				if err = lg.Append(wal.Record{Center: p.Query.Center, Theta: p.Query.Theta, Answer: p.Answer}); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		appended += len(pairs)
		r.tr.time(name, "wal.sync", trace, did, func() { err = lg.Sync() })
		if err != nil {
			return err
		}
		r.tr.time(name, "core.train", trace, did, func() { _, err = plain.TrainBatch(pairs) })
		if err != nil {
			return err
		}
		self = append(self, us(hd-dd1)/trainBatchSize)
	}
	r.res.layer["serve.train_handler_us_per_pair"] = r.tr.medianUS(name, "serve.train_handler") / trainBatchSize
	r.res.layer["serve.train_self_us_per_pair"] = median(self)
	r.res.layer["serve.json_decode_us"] = r.tr.medianUS(name, "serve.json_decode")
	r.res.layer["core.durable_train_us_per_pair"] = r.tr.medianUS(name, "core.durable_train") / trainBatchSize
	r.res.layer["core.train_us_per_pair"] = r.tr.medianUS(name, "core.train") / trainBatchSize
	r.res.layer["wal.append_us"] = r.tr.medianUS(name, "wal.append") / trainBatchSize
	r.res.layer["wal.sync_us"] = r.tr.medianUS(name, "wal.sync")
	for _, k := range []string{"serve.train_handler_us_per_pair", "core.durable_train_us_per_pair", "core.train_us_per_pair", "wal.append_us", "wal.sync_us"} {
		r.res.samples[k] = nb
	}
	if fi, err := os.Stat(wal.SegmentPath(logDir, lg.Gen())); err == nil && appended > 0 {
		r.res.layer["wal.bytes_per_pair"] = float64(fi.Size()) / float64(appended)
	}

	// One-off costs at the final state (K at the cap).
	r.res.layer["core.k_live"] = float64(fx.ref.K())
	cw := &countWriter{}
	if r.res.layer["core.checkpoint_ms"], err = medianOf(3, func() error { cw.n = 0; return fx.ref.Checkpoint(cw) }); err != nil {
		return err
	}
	r.res.layer["core.snapshot_bytes"] = float64(cw.n)
	if r.res.layer["core.state_hash_ms"], err = medianOf(3, func() error { _, err := fx.ref.StateHash(); return err }); err != nil {
		return err
	}
	if r.res.layer["wal.rotate_ms"], err = medianOf(3, func() error { return lg.Rotate(fx.ref.Checkpoint) }); err != nil {
		return err
	}
	man, err := wal.List(killedDir)
	if err != nil {
		return err
	}
	if n := len(man.Segments); n > 0 {
		replayed, _, err := wal.Replay(wal.SegmentPath(killedDir, man.Segments[n-1]), func(wal.Record) error { return nil })
		if err != nil {
			return err
		}
		r.res.layer["wal.replayed_records"] = float64(replayed)
	}
	// core.Recover on copies of the killed directory: the newest snapshot
	// plus the replay of the tail, which is what a recovery boot adds to a
	// plain one.
	var recovers []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("recover-%d", i))
		if err := copyDir(killedDir, dir); err != nil {
			return err
		}
		t := time.Now()
		d, err := core.Recover(dir, fx.trainCfg, quiet)
		if err != nil {
			return err
		}
		recovers = append(recovers, msSince(t))
		if d.Model().Steps() != fx.ref.Steps() {
			r.res.fail("core.Recover of the killed directory reached %d steps, want %d", d.Model().Steps(), fx.ref.Steps())
		}
		if err := d.Close(); err != nil {
			return err
		}
	}
	r.res.layer["core.recover_ms"] = median(recovers)
	r.fixtureMetrics()
	return nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"llmq/internal/core"
	lexec "llmq/internal/exec"
	"llmq/internal/replica"
	"llmq/internal/serve"
	"llmq/internal/sqlfront"
	"llmq/internal/wal"
)

// sizes are the knobs that differ between a full run, the driver's
// --seconds run and -smoke; everything else about a workload is fixed.
type sizes struct {
	window       time.Duration // measured window of the closed loops
	warmup       time.Duration
	boots        int // cold boots behind setup_s
	checkN       int // statements checked bit-for-bit before the window
	traceN       int // statements replayed by the traced run
	traceSheets  int // sheets / train batches replayed by the traced run
	trainBatches int // train_durable's fixed work, seed batch included
	wideK        int // sheet_wide's prototype count
	exactRows    int // exact_mixed's relation size
}

// trainBatchesPerSecond sizes train_durable's fixed work from --seconds:
// 192 batches of 256 pairs per second of budget is ~10 % below what this
// commit streams, so the stream takes about 0.9 × seconds. A multiple of
// 16 batches (= one 4 096-pair rotation) keeps the replayed tail at 15
// batches whatever the length.
const trainBatchesPerSecond = 192

func fullSizes(seconds int) sizes {
	return sizes{
		window:       time.Duration(seconds) * time.Second,
		warmup:       2 * time.Second,
		boots:        5,
		checkN:       2000,
		traceN:       5000,
		traceSheets:  64,
		trainBatches: trainBatchesPerSecond * seconds,
		wideK:        10000,
		exactRows:    200000,
	}
}

func smokeSizes() sizes {
	return sizes{
		window:       2 * time.Second,
		warmup:       300 * time.Millisecond,
		boots:        2,
		checkN:       200,
		traceN:       300,
		traceSheets:  4,
		trainBatches: 32, // 8 192 pairs: one rotation and a 15-batch tail
		wideK:        1500,
		exactRows:    20000,
	}
}

// run is one workload run in progress.
type run struct {
	e     *env
	sz    sizes
	seed  int64
	trace bool
	tr    *tracer
	res   *result
	fx    *fixture
}

// fixtureFor builds (once per invocation) the fixture of a workload.
func (e *env) fixtureFor(name string, sz sizes, seed int64) (*fixture, error) {
	if fx := e.fx[name]; fx != nil {
		return fx, nil
	}
	var (
		fx  *fixture
		err error
	)
	switch name {
	case wlPoint:
		fx, err = e.cliFixture(wlPoint, 20000, seed)
	case wlSheet:
		fx, err = e.wideFixture(sz.wideK, seed)
	case wlTrain:
		fx, err = e.durableFixture(sz.trainBatches, seed)
	case wlExact:
		fx, err = e.cliFixture(wlExact, sz.exactRows, seed)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s fixture: %w", name, err)
	}
	e.fx[name] = fx
	return fx, nil
}

// runWorkload runs one workload: the untraced live measurement and, when
// trace is set, the traced replay of its layers.
func (e *env) runWorkload(name string, sz sizes, seed int64, trace bool, tr *tracer) (*result, error) {
	fx, err := e.fixtureFor(name, sz, seed)
	if err != nil {
		return nil, err
	}
	r := &run{e: e, sz: sz, seed: seed, trace: trace, tr: tr, res: newResult(name), fx: fx}
	fmt.Printf("%s: request stream sha256=%s\n", name, fx.hash)
	switch name {
	case wlTrain:
		err = r.trainDurable()
	default:
		err = r.readWorkload()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r.res, nil
}

// coldBoots boots the child n times on the workload's files and records
// the median as setup_s; the last child stays up and is returned.
func (r *run) coldBoots(n int, args []string) (*child, error) {
	var boots []float64
	var c *child
	for i := 0; i < n; i++ {
		if c != nil {
			c.kill(&r.e.procs)
		}
		var err error
		if c, err = r.e.startChild(args...); err != nil {
			return nil, err
		}
		boots = append(boots, c.boot.Seconds())
	}
	r.res.e2e["setup_s"] = median(boots)
	r.res.samples["setup_s"] = len(boots)
	return c, nil
}

// expected is the in-process answer to one statement: what the same model
// file and relation answer through core.View and exec, parsed from the same
// SQL text the server parses.
type expected struct {
	kind  sqlfront.StatementKind
	exact bool
	mean  float64 // AVG / VALUE answer
	reg   []serve.LocalModelJSON
}

func (fx *fixture) expect(sql string) (expected, error) {
	st, err := sqlfront.Parse(sql)
	if err != nil {
		return expected{}, err
	}
	ex := expected{kind: st.Kind, exact: !st.Approx}
	if !st.Approx {
		// The generators draw EXACT statements of two kinds only.
		rq := lexec.RadiusQuery{Center: st.Center, Theta: st.Theta, P: st.Norm}
		if st.Kind == sqlfront.StmtMean {
			res, err := fx.rel.exec.MeanCtx(context.Background(), rq)
			ex.mean = res.Mean
			return ex, err
		}
		res, err := fx.rel.exec.RegressionCtx(context.Background(), rq)
		ex.reg = []serve.LocalModelJSON{{Intercept: res.Intercept, Slope: res.Slope, Center: st.Center, Theta: st.Theta, Weight: 1}}
		return ex, err
	}
	q, err := core.NewQuery(st.Center, st.Theta)
	if err != nil {
		return ex, err
	}
	v := fx.model.View()
	switch st.Kind {
	case sqlfront.StmtMean:
		ex.mean, err = v.PredictMean(q)
	case sqlfront.StmtValue:
		ex.mean, err = v.PredictValue(q, st.At)
	default:
		var locals []core.LocalLinear
		locals, err = v.Regression(q)
		for _, lm := range locals {
			ex.reg = append(ex.reg, serve.LocalModelJSON{Intercept: lm.Intercept, Slope: lm.Slope, Center: lm.Center, Theta: lm.Theta, Weight: lm.Weight})
		}
	}
	return ex, err
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func vecBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// matches reports whether a served answer is bit-equal to the in-process
// one. JSON carries float64 in shortest round-trip form, so equality of the
// bits is the right test, not a tolerance.
func (ex expected) matches(got *serve.QueryResponse) bool {
	if got == nil || got.Approx == ex.exact {
		return false
	}
	switch ex.kind {
	case sqlfront.StmtMean:
		return got.Mean != nil && bitsEqual(*got.Mean, ex.mean)
	case sqlfront.StmtValue:
		return got.Value != nil && bitsEqual(*got.Value, ex.mean)
	}
	if len(got.Models) != len(ex.reg) {
		return false
	}
	for i, m := range got.Models {
		w := ex.reg[i]
		if !bitsEqual(m.Intercept, w.Intercept) || !bitsEqual(m.Theta, w.Theta) || !bitsEqual(m.Weight, w.Weight) ||
			!vecBitsEqual(m.Slope, w.Slope) || !vecBitsEqual(m.Center, w.Center) {
			return false
		}
	}
	return true
}

// checkStatements sends n statements of connection 0's stream over one
// connection, one POST /query each, and compares every answer bit-for-bit
// with the in-process one. Wrong or failed answers count as failed
// requests. On exact_mixed the paired answers also give approx_q1_rmse.
func (r *run) checkStatements(c *child, gen func(i uint64) stmt, n int) error {
	cn, err := dial(c.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	var wire []byte
	var exactAvg, approxAvg []float64
	for i := uint64(0); i < uint64(n); i++ {
		s := gen(i)
		want, err := r.fx.expect(s.sql)
		if err != nil {
			return fmt.Errorf("in-process answer to %q: %w", s.sql, err)
		}
		wire = queryWire(wire[:0], s.sql)
		status, body, err := cn.roundTrip(wire)
		if err != nil {
			return err
		}
		r.res.attempted++
		var got serve.QueryResponse
		if status != http.StatusOK || json.Unmarshal(body, &got) != nil || !want.matches(&got) {
			r.res.failed++
			r.res.fail("statement %d %q: status %d, answer %s differs from the in-process answer", i, s.sql, status, bytes.TrimSpace(body))
			continue
		}
		if want.kind == sqlfront.StmtMean {
			if want.exact {
				exactAvg = append(exactAvg, want.mean)
			} else {
				approxAvg = append(approxAvg, want.mean)
			}
		}
	}
	if r.res.workload == wlExact && len(exactAvg) == len(approxAvg) && len(exactAvg) > 0 {
		// Pairs (2k, 2k+1) share a centre and radius, so the two AVG lists
		// line up pair by pair (unless an answer failed the check above).
		r.res.layer["e2e.approx_q1_rmse"] = rmse(approxAvg, exactAvg)
		r.res.samples["e2e.approx_q1_rmse"] = len(exactAvg)
	}
	return nil
}

// queryLoop is the closed loop of a single-statement connection: POST
// /query, read the whole answer, check the status and that the body is an
// answer of the right execution path.
func queryLoop(gen func(i uint64) stmt) doFunc {
	var wire []byte
	return func(c *conn, i uint64) (obs, error) {
		s := gen(i)
		wire = queryWire(wire[:0], s.sql)
		t := time.Now()
		status, body, err := c.roundTrip(wire)
		if err != nil {
			return obs{}, err
		}
		marker := `"approx":true`
		if s.class == classExact {
			marker = `"approx":false`
		}
		return obs{lat: time.Since(t), ops: 1, class: s.class, rep: s.repeat,
			ok: status == http.StatusOK && bytes.Contains(body, []byte(marker))}, nil
	}
}

// sheetLoop is the closed loop of a sheet connection: POST /query/batch and
// read the NDJSON stream frame by frame. In the window a frame is checked
// by its bytes (right index, no error, then the trailer with the right
// count); the full grammar and the answers are checked by checkSheets.
func sheetLoop(seed int64, centers [][]float64, k uint64) doFunc {
	var wire []byte
	trailer := []byte(`{"done":true,"results":` + strconv.Itoa(sheetSize) + `,`)
	return func(c *conn, i uint64) (obs, error) {
		wire = sheetWire(wire[:0], sheetStmts(seed, centers, k, i))
		t := time.Now()
		var first time.Duration
		next, ok, done := 0, true, false
		var prefix []byte
		status, err := c.roundTripLines(wire, func(line []byte) error {
			if done {
				ok = false // bytes after the trailer
				return nil
			}
			if next == sheetSize {
				done = true
				ok = ok && bytes.HasPrefix(line, trailer)
				return nil
			}
			if next == 0 {
				first = time.Since(t)
			}
			prefix = append(prefix[:0], `{"index":`...)
			prefix = strconv.AppendInt(prefix, int64(next), 10)
			prefix = append(prefix, ',')
			ok = ok && bytes.HasPrefix(line, prefix) && !bytes.Contains(line, []byte(`"error":`))
			next++
			return nil
		})
		if err != nil {
			return obs{}, err
		}
		return obs{lat: time.Since(t), first: first, ops: sheetSize,
			ok: ok && done && status == http.StatusOK}, nil
	}
}

// checkSheets verifies whole sheets through the protocol's own reader
// (serve.ReadBatchStream: every frame parses, indices are 0,1,2,…, the
// trailer is last and counts right) and every answer bit-for-bit.
func (r *run) checkSheets(c *child, sheets int) error {
	cn, err := dial(c.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	for i := uint64(0); i < uint64(sheets); i++ {
		sqls := sheetStmts(r.seed, r.fx.centers, 0, i)
		// Collect the raw stream, then run it through the protocol's reader.
		var stream bytes.Buffer
		status, err := cn.roundTripLines(sheetWire(nil, sqls), func(line []byte) error { stream.Write(line); return nil })
		if err != nil {
			return err
		}
		bad := 0
		_, serr := serve.ReadBatchStream(&stream, func(f serve.BatchFrame) error {
			want, err := r.fx.expect(sqls[*f.Index])
			if err != nil {
				return err
			}
			if f.Error != "" || !want.matches(f.QueryResponse) {
				bad++
			}
			return nil
		})
		r.res.attempted++
		if serr != nil || bad > 0 || status != http.StatusOK {
			r.res.failed++
			r.res.fail("sheet %d: status %d, %d wrong answers, stream error %v", i, status, bad, serr)
		}
	}
	return nil
}

// readWorkload runs point_approx, sheet_wide or exact_mixed: cold boots,
// the bit-for-bit check, then two closed-loop connections for warm-up +
// window.
func (r *run) readWorkload() error {
	name := r.res.workload
	c, err := r.coldBoots(r.sz.boots, r.fx.serveArgs)
	if err != nil {
		return err
	}
	defer c.kill(&r.e.procs)
	gen := func(k uint64) func(i uint64) stmt {
		if name == wlExact {
			return func(i uint64) stmt { return exactStmt(r.seed, k, i) }
		}
		return func(i uint64) stmt { return pointStmt(r.seed, k, i) }
	}
	var loops []doFunc
	if name == wlSheet {
		if err := r.checkSheets(c, (r.sz.checkN+sheetSize-1)/sheetSize); err != nil {
			return err
		}
		loops = []doFunc{sheetLoop(r.seed, r.fx.centers, 0), sheetLoop(r.seed, r.fx.centers, 1)}
	} else {
		if err := r.checkStatements(c, gen(0), r.sz.checkN); err != nil {
			return err
		}
		loops = []doFunc{queryLoop(gen(0)), queryLoop(gen(1))}
	}
	walk := memWalkUS(15)
	w, err := r.e.runWindow(c, loops, r.sz.warmup, r.sz.window)
	if err != nil {
		return err
	}
	r.res.layer["host.mem_walk_us"] = (walk + memWalkUS(15)) / 2
	r.res.attempted += w.attempted
	r.res.failed += w.failed
	ok := w.okOps()
	if ok == 0 {
		return fmt.Errorf("no request succeeded in the window")
	}
	per := w.perSecondOps()
	r.res.e2e["ops_per_s"] = windowRate(per)
	r.res.samples["ops_per_s"] = len(per)
	r.res.e2e["server_cpu_us_per_op"] = w.childCPU * 1e6 / float64(ok)
	r.res.e2e["rss_peak_mb"] = w.rssMB
	all := w.latenciesMS(nil)
	primary := all
	if name == wlExact {
		// The two classes are ~5× apart and equally frequent, so the median
		// of the mix sits on the boundary between them and means nothing:
		// req_p50_ms is the EXACT class here, the one that does the work.
		primary = w.latenciesMS(func(o obs) bool { return o.class == classExact })
		approx := w.latenciesMS(func(o obs) bool { return o.class == classApprox })
		r.res.layer["e2e.exact_p50_ms"] = percentile(primary, 0.5)
		r.res.layer["e2e.approx_p50_ms"] = percentile(approx, 0.5)
		r.res.samples["e2e.exact_p50_ms"] = len(primary)
		r.res.samples["e2e.approx_p50_ms"] = len(approx)
	}
	r.res.e2e["req_p50_ms"] = percentile(primary, 0.5)
	r.res.layer["e2e.req_p99_ms"] = percentile(all, 0.99)
	r.res.samples["req_p50_ms"] = len(primary)
	r.res.samples["e2e.req_p99_ms"] = len(all)
	if name == wlSheet {
		var firsts []float64
		for _, o := range w.obs {
			if o.ok {
				firsts = append(firsts, ms(o.first))
			}
		}
		r.res.layer["e2e.first_frame_p50_ms"] = median(firsts)
		r.res.samples["e2e.first_frame_p50_ms"] = len(firsts)
	}
	r.loadgenMetrics(w.selfCPU, w.wall, w.obs)
	if r.trace {
		return r.traceRead(c)
	}
	return nil
}

// loadgenMetrics records what the generator itself did, so a reader can see
// it was not the bottleneck.
func (r *run) loadgenMetrics(selfCPU float64, wall time.Duration, window []obs) {
	r.res.layer["loadgen.cpu_share"] = selfCPU / wall.Seconds()
	reps := 0
	for _, o := range window {
		if o.rep {
			reps++
		}
	}
	if len(window) > 0 {
		r.res.layer["loadgen.repeat_share"] = float64(reps) / float64(len(window))
	}
	r.res.layer["loadgen.requests"] = float64(r.res.attempted)
	r.res.layer["loadgen.failed"] = float64(r.res.failed)
	r.res.layer["e2e.fail_share"] = float64(r.res.failed) / float64(max(r.res.attempted, 1))
}

// getJSON GETs path over a fresh connection and decodes the body.
func getJSON(addr, path string, v any) error {
	cn, err := dial(addr)
	if err != nil {
		return err
	}
	defer cn.close()
	status, body, err := cn.roundTrip(appendHTTP(nil, "GET", path, nil))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// trainDurable runs the write workload: a server over a seeded data
// directory takes the fixed stream of /train batches on one connection
// while a paced reader queries on another; then the server is SIGKILLed
// and booted cold five times on what it left behind, and every boot must
// come back at the full step count with the reference model's state hash.
func (r *run) trainDurable() error {
	fx := r.fx
	dir := filepath.Join(r.e.tmp, fmt.Sprintf("durable-%d", time.Now().UnixNano()))
	if err := copyDir(fx.seedDir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := append(append([]string(nil), fx.serveArgs...), "-data-dir", dir)
	c, err := r.e.startChild(args...)
	if err != nil {
		return err
	}
	defer func() { c.kill(&r.e.procs) }()

	// The paced reader: one connection, a 5 ms pause after each answer. It
	// runs from idleLead before the stream until the stream ends.
	const thinkTime = 5 * time.Millisecond
	idleLead := r.sz.warmup
	rc, err := dial(c.addr)
	if err != nil {
		return err
	}
	defer rc.close()
	stopReader := make(chan struct{})
	readerDone := make(chan error, 1)
	var reads []obs
	origin := time.Now()
	go func() {
		loop := queryLoop(func(i uint64) stmt { return readerStmt(r.seed, i) })
		for i := uint64(0); ; i++ {
			select {
			case <-stopReader:
				readerDone <- nil
				return
			default:
			}
			o, err := loop(rc, i)
			if err != nil {
				readerDone <- err
				return
			}
			o.done = time.Since(origin)
			reads = append(reads, o)
			time.Sleep(thinkTime)
		}
	}()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		close(stopReader)
		return <-readerDone
	}
	defer stop()
	select {
	case <-time.After(idleLead):
	case <-r.e.ctx.Done():
		return r.e.ctx.Err()
	}

	// The writer: fixed work, closed loop, one connection.
	wc, err := dial(c.addr)
	if err != nil {
		return err
	}
	defer wc.close()
	streamed := fx.stream.wires[1:]
	walk := memWalkUS(15)
	acks := make([]float64, 0, len(streamed))
	ackAt := make([]time.Duration, 0, len(streamed)) // ack time since the stream began
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return err
	}
	self0 := selfCPUSeconds()
	streamStart := time.Since(origin)
	t0 := time.Now()
	for b, wire := range streamed {
		if r.e.ctx.Err() != nil {
			return r.e.ctx.Err()
		}
		t := time.Now()
		status, body, err := wc.roundTrip(wire)
		if err != nil {
			return err
		}
		acks = append(acks, ms(time.Since(t)))
		ackAt = append(ackAt, time.Since(t0))
		r.res.attempted++
		var tr serve.TrainResponse
		wantSteps := (b + 2) * trainBatchSize
		if status != http.StatusOK || json.Unmarshal(body, &tr) != nil ||
			tr.Accepted != trainBatchSize || tr.Steps != wantSteps || !tr.Durable {
			r.res.failed++
			r.res.fail("train batch %d: status %d, ack %s (want accepted=%d steps=%d durable)", b+1, status, bytes.TrimSpace(body), trainBatchSize, wantSteps)
		}
	}
	wall := time.Since(t0)
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return err
	}
	selfCPU := selfCPUSeconds() - self0
	rss, err := c.rssPeakMB()
	if err != nil {
		return err
	}
	streamEnd := time.Since(origin)
	r.res.layer["host.mem_walk_us"] = (walk + memWalkUS(15)) / 2
	if err := stop(); err != nil {
		return fmt.Errorf("reader: %w", err)
	}
	pairs := len(streamed) * trainBatchSize
	// Acknowledged pairs per 1-second window of the stream, median — the
	// same estimator as the read workloads, so a second in which the disk
	// or a neighbour stalls the stream does not move the rate.
	perSecond := make([]int, int(wall/time.Second))
	for _, at := range ackAt {
		if s := int(at / time.Second); s < len(perSecond) {
			perSecond[s] += trainBatchSize
		}
	}
	if len(perSecond) == 0 {
		perSecond = []int{int(float64(pairs) / wall.Seconds())}
	}
	r.res.e2e["ops_per_s"] = windowRate(perSecond)
	r.res.samples["ops_per_s"] = len(perSecond)
	r.res.e2e["server_cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(pairs)
	r.res.e2e["rss_peak_mb"] = rss
	sortedAcks := sortedCopy(acks)
	r.res.layer["e2e.train_ack_p50_ms"] = percentile(sortedAcks, 0.5)
	r.res.layer["e2e.train_ack_p99_ms"] = percentile(sortedAcks, 0.99)
	r.res.samples["e2e.train_ack_p50_ms"] = len(acks)
	r.res.samples["e2e.train_ack_p99_ms"] = len(acks)
	var idle, busy []float64
	var window []obs
	for _, o := range reads {
		r.res.attempted++
		if !o.ok {
			r.res.failed++
			continue
		}
		switch {
		case o.done < streamStart:
			idle = append(idle, ms(o.lat))
		case o.done < streamEnd:
			busy = append(busy, ms(o.lat))
			window = append(window, o)
		}
	}
	if len(busy) == 0 {
		return fmt.Errorf("the reader completed no request during the stream")
	}
	busy = sortedCopy(busy)
	r.res.e2e["req_p50_ms"] = percentile(busy, 0.5)
	r.res.layer["e2e.req_p99_ms"] = percentile(busy, 0.99)
	r.res.samples["req_p50_ms"] = len(busy)
	r.res.samples["e2e.req_p99_ms"] = len(busy)
	r.res.layer["serve.idle_read_p50_ms"] = median(idle)
	r.res.samples["serve.idle_read_p50_ms"] = len(idle)

	// Crash, then recover cold r.sz.boots times on the same directory. Each
	// boot is killed again without a clean shutdown, so every one replays
	// the same tail.
	c.kill(&r.e.procs)
	total := len(fx.stream.batches) * trainBatchSize
	var boots []float64
	for i := 0; i < r.sz.boots; i++ {
		if c, err = r.e.startChild(args...); err != nil {
			return fmt.Errorf("recovery boot %d: %w", i+1, err)
		}
		boots = append(boots, c.boot.Seconds())
		var info serve.ModelInfo
		var hr replica.HashResponse
		if err := getJSON(c.addr, "/model", &info); err != nil {
			return err
		}
		if err := getJSON(c.addr, replica.PathHash, &hr); err != nil {
			return err
		}
		r.res.attempted += 2
		if info.Steps != total || hr.Steps != total || hr.Hash != fx.refHash {
			r.res.failed++
			r.res.fail("recovery boot %d: /model steps=%d, /replicate/hash steps=%d hash=%.12s…; want steps=%d hash=%.12s…",
				i+1, info.Steps, hr.Steps, hr.Hash, total, fx.refHash)
		}
		c.kill(&r.e.procs)
	}
	r.res.e2e["setup_s"] = median(boots)
	r.res.samples["setup_s"] = len(boots)
	r.loadgenMetrics(selfCPU, wall, window)
	man, err := wal.List(dir)
	if err != nil {
		return err
	}
	if n := len(man.Snapshots); n > 0 {
		// The seeded directory holds snapshot generation 1; every rotation
		// adds one.
		r.res.layer["wal.rotations"] = float64(man.Snapshots[n-1] - 1)
	}
	if r.trace {
		return r.traceTrain(dir)
	}
	return nil
}

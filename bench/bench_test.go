package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}, {0.125, 1.5}}
	for _, c := range cases {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty sample must read NaN, never 0")
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an unsorted even sample = %v, want 4", got)
	}
}

func TestWindowRate(t *testing.T) {
	// One stalled second does not move the rate; the mean would read 8.2.
	if got := windowRate([]int{10, 10, 1, 10, 10}); got != 10 {
		t.Errorf("windowRate = %v, want 10", got)
	}
	if got := windowRate([]int{4, 8}); got != 6 {
		t.Errorf("windowRate of two windows = %v, want 6", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spreadShare(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if q1, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Errorf("two-point quartiles = %v, %v; want 2.5, 5.5", q1, q3)
	}
}

func TestRMSE(t *testing.T) {
	if got := rmse([]float64{1, 2, 3}, []float64{1, 4, 3}); math.Abs(got-math.Sqrt(4.0/3)) > 1e-15 {
		t.Errorf("rmse = %v", got)
	}
	if !math.IsNaN(rmse([]float64{1}, nil)) {
		t.Error("mismatched samples must read NaN")
	}
}

// TestStreamsFollowTheSeed pins the contract of -seed: the same seed gives
// byte-identical request streams, another seed gives other bytes.
func TestStreamsFollowTheSeed(t *testing.T) {
	hash := func(name string, seed int64) string {
		var ts *trainStream
		if name == wlTrain {
			var err error
			if ts, err = newTrainStream(seed, 8); err != nil {
				t.Fatal(err)
			}
		}
		h, err := streamHash(name, seed, ts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	seen := map[string]string{}
	for _, name := range workloadNames {
		a, again, b := hash(name, 1), hash(name, 1), hash(name, 2)
		if a != again {
			t.Errorf("%s: seed 1 hashed %s then %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 generate the same requests", name)
		}
		if other, dup := seen[a]; dup {
			t.Errorf("%s and %s share a stream", name, other)
		}
		seen[a] = name
	}
}

func TestStreamShapes(t *testing.T) {
	reps := 0
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if pointStmt(1, 0, i).repeat {
			reps++
		}
	}
	if share := float64(reps) / n; math.Abs(share-pointRepeatShare) > 0.05 {
		t.Errorf("point_approx repeat share %.3f, want ≈ %.2f", share, pointRepeatShare)
	}
	for k := uint64(0); k < 200; k += 2 {
		a, b := exactStmt(1, 1, k), exactStmt(1, 1, k+1)
		if a.class == b.class {
			t.Fatalf("exact_mixed pair %d has two statements of class %d", k/2, a.class)
		}
	}
	if got := len(sheetStmts(1, wideCenters(1), 0, 0)); got != sheetSize {
		t.Errorf("sheet has %d statements, want %d", got, sheetSize)
	}
}

// TestBenchmarkFileNamesTheHarnessMetrics keeps BENCHMARK.json and the
// harness in step: same workloads, same metric names and units, in order.
func TestBenchmarkFileNamesTheHarnessMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke builds llmq and runs the whole harness at -smoke sizes — child
// processes, checks, the SIGKILL/recovery cycle, the traced replay and the
// span file — so a refactor that breaks a pinned function or the serving
// protocol fails here and not in a twenty-minute benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run builds and boots llmq serve; skipped under -short")
	}
	e, err := newEnv(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	tr := newTracer()
	for _, name := range workloadNames {
		res, err := e.runWorkload(name, smokeSizes(), 1, true, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.problems {
			t.Errorf("%s: %s", name, p)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d requests failed", name, res.failed, res.attempted)
		}
		for _, traced := range []bool{false, true} {
			line, err := res.jsonLine(traced)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			var obj struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &obj); err != nil || !obj.Correct {
				t.Errorf("%s: result object %s (err %v)", name, line, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(obj.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics in the result object, want %d", name, traced, len(obj.Metrics), want)
			}
		}
		for _, d := range endToEnd {
			if v := res.e2e[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.name, v)
			}
		}
		if name == wlTrain {
			if got := res.layer["wal.replayed_records"]; got != 15*trainBatchSize {
				t.Errorf("replayed tail = %v records, want %d", got, 15*trainBatchSize)
			}
			if got := res.layer["wal.rotations"]; got != 1 {
				t.Errorf("rotations = %v, want 1", got)
			}
		}
	}
	out := filepath.Join(e.tmp, "spans.json")
	if err := tr.write(out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	roots := map[string]int{}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d ends before it starts", s.SpanID)
		}
		if s.ParentID == 0 {
			roots[s.Workload]++
		}
	}
	for _, name := range workloadNames {
		if roots[name] == 0 {
			t.Errorf("%s recorded no root span", name)
		}
	}
}

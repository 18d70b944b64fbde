package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlPoint = "point_approx"
	wlSheet = "sheet_wide"
	wlTrain = "train_durable"
	wlExact = "exact_mixed"
)

var workloadNames = []string{wlPoint, wlSheet, wlTrain, wlExact}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees. The acceptance
// contract wants every one of them on every workload and never zero, so the
// list holds only the five that every workload defines and that the A/A
// runs hold inside a bound; what an `op` and a `request` are per workload is
// in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run, in the order
// the report prints them. A layer that is not on a workload's path reads 0
// there. The e2e.* entries are end-to-end measurements that exist on one
// workload only (or may legitimately be 0) and therefore cannot carry a
// bound.
var perLayer = []metricDef{
	{"e2e.req_p99_ms", "ms"},
	{"e2e.first_frame_p50_ms", "ms"},
	{"e2e.train_ack_p50_ms", "ms"},
	{"e2e.train_ack_p99_ms", "ms"},
	{"e2e.exact_p50_ms", "ms"},
	{"e2e.approx_p50_ms", "ms"},
	{"e2e.approx_q1_rmse", "u"},
	{"e2e.fail_share", "ratio"},
	{"serve.query_handler_us", "us"},
	{"serve.query_handler_allocs", "count"},
	{"serve.query_handler_bytes", "B"},
	{"serve.query_self_us", "us"},
	{"serve.json_decode_us", "us"},
	{"serve.json_encode_us", "us"},
	{"serve.sheet_handler_us_per_stmt", "us"},
	{"serve.sheet_cpu_us_per_stmt", "us"},
	{"serve.sheet_self_us_per_stmt", "us"},
	{"serve.train_handler_us_per_pair", "us"},
	{"serve.train_self_us_per_pair", "us"},
	{"serve.idle_read_p50_ms", "ms"},
	{"net.rtt_floor_us", "us"},
	{"net.client_p50_us", "us"},
	{"net.query_overhead_us", "us"},
	{"sqlfront.parse_us", "us"},
	{"sqlfront.parse_allocs", "count"},
	{"core.predict_mean_us", "us"},
	{"core.predict_value_us", "us"},
	{"core.regression_us", "us"},
	{"core.winner_us", "us"},
	{"core.predict_allocs", "count"},
	{"core.overlap_avg", "count"},
	{"core.k_live", "count"},
	{"core.load_ms", "ms"},
	{"core.train_us_per_pair", "us"},
	{"core.durable_train_us_per_pair", "us"},
	{"core.checkpoint_ms", "ms"},
	{"core.state_hash_ms", "ms"},
	{"core.snapshot_bytes", "B"},
	{"core.recover_ms", "ms"},
	{"vector.argmin_ns_per_row", "ns"},
	{"vector.argmin_bytes_per_call", "B"},
	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.rotate_ms", "ms"},
	{"wal.bytes_per_pair", "B"},
	{"wal.rotations", "count"},
	{"wal.replayed_records", "count"},
	{"exec.mean_us", "us"},
	{"exec.regression_us", "us"},
	{"exec.select_us", "us"},
	{"exec.rows_selected_avg", "count"},
	{"exec.build_index_ms", "ms"},
	{"dataset.read_csv_ms", "ms"},
	{"engine.load_ms", "ms"},
	{"resilience.acquire_release_ns", "ns"},
	{"loadgen.cpu_share", "cores"},
	{"loadgen.repeat_share", "ratio"},
	{"loadgen.requests", "count"},
	{"loadgen.failed", "count"},
	{"trace.overhead_share", "ratio"},
	{"host.mem_walk_us", "us"},
}

// result is one workload run.
type result struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int // sample count behind a metric, where it has one
	attempted int
	failed    int
	problems  []string // failed checks, each one line
}

func newResult(name string) *result {
	return &result{workload: name, e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// fail records a failed check; any one makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// print writes the workload's metrics, one per line, by name and unit.
func (r *result) print(traced bool) {
	fmt.Printf("\n== %s ==\n", r.workload)
	line := func(d metricDef, v float64, ok bool) {
		if !ok {
			return
		}
		n := ""
		if c, has := r.samples[d.name]; has {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", d.name, v, d.unit, n)
	}
	for _, d := range endToEnd {
		v, ok := r.e2e[d.name]
		line(d, v, ok)
	}
	for _, d := range perLayer {
		// The machine probe is printed with every run; the rest of the
		// per-layer list belongs to the traced run.
		if v, ok := r.layer[d.name]; traced || d.name == "host.mem_walk_us" {
			line(d, v, ok)
		}
	}
	fmt.Printf("  requests attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
}

// jsonLine renders the contract's result object: every end-to-end metric
// (untraced) or every per-layer metric (traced), layers off the workload's
// path as 0.
func (r *result) jsonLine(traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			if !traced {
				return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s is not a number", r.workload, d.name)
		}
		metrics[d.name] = mv{Value: v, Unit: d.unit}
	}
	// A failed check that is not a failed request still has to show as a
	// failure in the counts.
	failed := r.failed
	if failed == 0 && len(r.problems) > 0 {
		failed = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), failed, metrics})
	return string(b), err
}

// benchmarkFile is the part of BENCHMARK.json the harness reads back: the
// bounds -aa judges spreads against, and the names the tests keep in sync.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// printAA reports, per end-to-end metric and workload, min / median / max
// over the rounds and whether the spread — (max−min)/median for fewer than
// four rounds, the interquartile share otherwise — is inside the bound.
func printAA(bf *benchmarkFile, rounds []map[string]*result) {
	fmt.Printf("\n== A/A over %d rounds of the same build ==\n", len(rounds))
	fmt.Printf("%-14s %-22s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "inside")
	for _, w := range workloadNames {
		for _, d := range bf.EndToEnd {
			var vals []float64
			for _, round := range rounds {
				if r := round[w]; r != nil {
					if v, ok := r.e2e[d.Name]; ok {
						vals = append(vals, v)
					}
				}
			}
			if len(vals) == 0 {
				continue
			}
			s := sortedCopy(vals)
			spread := (s[len(s)-1] - s[0]) / median(s)
			if len(s) >= 4 {
				spread = spreadShare(s)
			}
			verdict := "yes"
			if spread > d.Bound {
				verdict = "NO"
			}
			fmt.Printf("%-14s %-22s %12.6g %12.6g %12.6g %8.4f %6.2f  %s\n",
				w, d.Name, s[0], median(s), s[len(s)-1], spread, d.Bound, verdict)
		}
	}
}

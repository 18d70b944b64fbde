package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one replayed statement (or train batch)
// share a trace id; parent_id names the span whose budget this one is a
// part of. The root of a read trace is the live request over one
// connection; its descendants are the same input replayed in-process, one
// layer at a time, right after the root ended — so a child's clock interval
// does not lie inside its parent's, and a span's self time is its duration
// minus its children's durations.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores one finished span and returns its id.
func (t *tracer) record(workload, name string, trace, parent uint64, start, end time.Time) uint64 {
	t.nextID++
	t.spans = append(t.spans, span{
		TraceID: trace, SpanID: t.nextID, ParentID: parent, Name: name, Workload: workload,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return t.nextID
}

// time runs fn as a span and returns the span's id and duration.
func (t *tracer) time(workload, name string, trace, parent uint64, fn func()) (uint64, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.record(workload, name, trace, parent, start, end), end.Sub(start)
}

// durationsUS returns the durations, in µs, of a workload's spans by name.
func (t *tracer) durationsUS(workload, name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Workload == workload && s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

// medianUS is the median duration of a workload's spans by name (0 when the
// workload recorded none: the layer is not on its path).
func (t *tracer) medianUS(workload, name string) float64 {
	d := t.durationsUS(workload, name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("[\n"); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budgetRow is one line of a printed stage budget.
type budgetRow struct {
	depth int
	name  string
}

// printBudget prints the stage map of one workload: the median duration of
// each span name in tree order and its share of the root, over the traces
// that recorded a span named only (all traces when only is empty) — a
// statement mix gives each trace one model or executor call, so the budget
// is drawn for the traces of one kind. The exact per-trace self times are
// the *_self_* metrics.
func (t *tracer) printBudget(workload, only string, rows []budgetRow) {
	keep := map[uint64]bool{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Workload == workload && (only == "" || s.Name == only) {
			keep[s.TraceID] = true
		}
	}
	med := func(name string) (float64, int) {
		var d []float64
		for i := range t.spans {
			if s := &t.spans[i]; s.Workload == workload && s.Name == name && keep[s.TraceID] {
				d = append(d, float64(s.EndNS-s.StartNS)/1e3)
			}
		}
		return median(d), len(d)
	}
	root, n := med(rows[0].name)
	if n == 0 {
		return
	}
	what := rows[0].name
	if only != "" {
		what += " with a " + only + " call"
	}
	fmt.Printf("\n  stage budget of one %s on %s (median µs over %d traces, share of the root):\n", what, workload, n)
	for _, row := range rows {
		if m, n := med(row.name); n > 0 {
			fmt.Printf("    %*s%-*s %10.2f  %5.1f%%\n", 2*row.depth, "", 34-2*row.depth, row.name, m, 100*m/root)
		}
	}
}

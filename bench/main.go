// Command bench is the repository's benchmark: four served workloads
// against the shipped `llmq serve` binary, driven over loopback HTTP, with
// end-to-end metrics measured untraced and a per-layer budget from a traced
// replay of the same inputs. See README.md.
//
//	bash bench/run.sh -seed 1                       # every workload, report + span file
//	bash bench/run.sh -workload sheet_wide -seed 3 -seconds 20 -trace 0
//	bash bench/run.sh -aa 2                         # A/A: the full set twice, spreads vs bounds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() { os.Exit(realMain()) }

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	smoke    bool
	aa       int
	llmq     string
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (point_approx, sheet_wide, train_durable, exact_mixed) and end with the result object; empty runs all four, untraced and traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated fixture and request stream")
	flag.IntVar(&o.seconds, "seconds", 30, "measured window per workload in seconds (train_durable: sizes its fixed work)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures and prints the end-to-end metrics, 1 also runs the traced replay and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its spans as JSON (default .bench_build/spans-[<workload>-]seed<seed>.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (~2 s per workload, 8 192 train pairs): exercises the whole harness, proves nothing about speed")
	flag.IntVar(&o.aa, "aa", 0, "run the full set this many times on the same build and report each end-to-end metric's spread against its bound in BENCHMARK.json")
	flag.StringVar(&o.llmq, "llmq", "", "use this prebuilt llmq binary instead of building ./cmd/llmq")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, o.llmq)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer e.cleanup()
	ok, err := e.execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// execute runs what the options ask for and reports whether every check
// passed.
func (e *env) execute(o options) (bool, error) {
	sz := fullSizes(o.seconds)
	if o.smoke {
		sz = smokeSizes()
	}
	fmt.Println(e.header(o.seed))
	tr := newTracer()
	if o.workload != "" {
		traced := o.trace == 1
		res, err := e.runWorkload(o.workload, sz, o.seed, traced, tr)
		if err != nil {
			return false, err
		}
		res.print(traced)
		if traced {
			printBudgets(tr, o.workload)
			if err := e.writeSpans(tr, o); err != nil {
				return false, err
			}
		}
		line, err := res.jsonLine(traced)
		if err != nil {
			return false, err
		}
		fmt.Println(line)
		return res.correct(), nil
	}
	rounds := max(o.aa, 1)
	all := make([]map[string]*result, 0, rounds)
	ok := true
	for round := 0; round < rounds; round++ {
		if rounds > 1 {
			fmt.Printf("\n#### round %d of %d ####\n", round+1, rounds)
		}
		out := make(map[string]*result)
		for _, name := range workloadNames {
			// Spans of earlier rounds are dropped: the span file holds one
			// replay of each workload.
			if round > 0 && name == workloadNames[0] {
				tr = newTracer()
			}
			res, err := e.runWorkload(name, sz, o.seed, true, tr)
			if err != nil {
				return false, err
			}
			res.print(true)
			printBudgets(tr, name)
			ok = ok && res.correct()
			out[name] = res
		}
		all = append(all, out)
	}
	if err := e.writeSpans(tr, o); err != nil {
		return false, err
	}
	if o.aa > 0 {
		bf, err := readBenchmarkFile(e.root)
		if err != nil {
			return false, err
		}
		printAA(bf, all)
	}
	return ok, nil
}

// printBudgets prints the stage maps: one served AVG statement on
// point_approx and exact_mixed (the EXACT one there), one sheet, one trained
// batch.
func printBudgets(tr *tracer, name string) {
	statement := []budgetRow{
		{0, "request"},
		{1, "serve.query_handler"},
		{2, "serve.json_decode"},
		{2, "sqlfront.parse"},
		{2, "core.predict_mean"},
		{3, "core.winner"},
		{2, "exec.mean"},
		{3, "exec.select"},
		{2, "serve.json_encode"},
	}
	switch name {
	case wlPoint:
		tr.printBudget(name, "core.predict_mean", statement)
	case wlExact:
		tr.printBudget(name, "exec.mean", statement)
	case wlSheet:
		tr.printBudget(name, "", []budgetRow{
			{0, "request"},
			{1, "serve.sheet_handler"},
		})
	case wlTrain:
		tr.printBudget(name, "", []budgetRow{
			{0, "serve.train_handler"},
			{1, "serve.json_decode"},
			{1, "core.durable_train"},
			{2, "wal.append"},
			{2, "wal.sync"},
			{2, "core.train"},
		})
	}
}

// writeSpans writes the traced run's spans, by default under .bench_build.
func (e *env) writeSpans(tr *tracer, o options) error {
	path := o.traceOut
	if path == "" {
		name := fmt.Sprintf("spans-seed%d.json", o.seed)
		if o.workload != "" {
			name = fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)
		}
		path = filepath.Join(e.build, name)
	}
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("\n%d spans written to %s\n", len(tr.spans), path)
	return nil
}

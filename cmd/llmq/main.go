// Command llmq is the end-to-end tool for the query-driven LLM analytics
// library: it generates synthetic datasets, trains models from query
// workloads executed against the in-memory DBMS, and answers SQL-like
// analytics statements either exactly or through a trained model.
//
// Typical session:
//
//	llmq generate -dataset R1 -n 20000 -dim 2 -o r1.csv
//	llmq train -data r1.csv -a 0.25 -pairs 4000 -o model.json
//	llmq query -data r1.csv -model model.json \
//	    -sql "SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"
//	llmq query -data r1.csv \
//	    -sql "SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/sqlfront"
	"llmq/internal/synth"
	"llmq/internal/wal"
	"llmq/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "llmq:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return errors.New("a subcommand is required")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:], out)
	case "train":
		return cmdTrain(args[1:], out)
	case "query":
		return cmdQuery(args[1:], out)
	case "batch":
		return cmdBatch(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprint(out, `llmq - query-driven local linear models for in-DBMS analytics

subcommands:
  generate  generate a synthetic dataset (R1 sensor surrogate or R2 Rosenbrock) as CSV
  train     execute a random query workload against the dataset and train an LLM model
  query     answer a SQL-like analytics statement exactly or with a trained model
  batch     answer a file of statements (one per line) in parallel over a worker pool
  serve     expose the relation (and optional model) as the HTTP analytics service
`)
}

func cmdGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	kind := fs.String("dataset", "R1", "dataset kind: R1 or R2")
	n := fs.Int("n", 10000, "number of tuples")
	dim := fs.Int("dim", 2, "input dimensionality")
	seed := fs.Int64("seed", 1, "random seed")
	output := fs.String("o", "", "output CSV path (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg synth.Config
	switch strings.ToUpper(*kind) {
	case "R1":
		cfg = synth.R1Config(*n, *dim, *seed)
	case "R2":
		cfg = synth.R2Config(*n, *dim, *seed)
	default:
		return fmt.Errorf("unknown dataset kind %q", *kind)
	}
	pts, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	ds, err := dataset.FromPoints(strings.ToUpper(*kind), pts.Xs, pts.Us)
	if err != nil {
		return err
	}
	w := out
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		return err
	}
	if *output != "" {
		fmt.Fprintf(out, "wrote %d tuples (%d attributes + output) to %s\n", ds.Len(), ds.Dim(), *output)
	}
	return nil
}

// loadExecutor loads a CSV dataset into the in-memory engine and builds a
// grid-indexed executor over it.
func loadExecutor(path string, cellSize float64) (*exec.Executor, *dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(strings.ToLower(strings.TrimSuffix(path, ".csv")), "/")
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	ds, err := dataset.ReadCSV(name, f)
	if err != nil {
		return nil, nil, err
	}
	cat := engine.NewCatalog()
	tab, err := cat.LoadDataset(name, ds)
	if err != nil {
		return nil, nil, err
	}
	if cellSize <= 0 {
		b, err := ds.Bounds()
		if err != nil {
			return nil, nil, err
		}
		span := 0.0
		for j := range b.InputMax {
			span += b.InputMax[j] - b.InputMin[j]
		}
		cellSize = span / float64(ds.Dim()) / 10
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	e, err := exec.NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, cellSize)
	if err != nil {
		return nil, nil, err
	}
	return e, ds, nil
}

// capacity carries the bounded-capacity flag values (and which were
// explicitly set) from a subcommand's flag set to applyCapacity.
type capacity struct {
	maxProto         int
	evict            string
	merge            bool
	maxSet, mergeSet bool
}

// any reports whether the user passed any capacity flag at all.
func (cp capacity) any() bool { return cp.maxSet || cp.evict != "" || cp.mergeSet }

// capacityFlags registers the bounded-capacity streaming-training flags
// shared by the train, serve and batch subcommands; call the returned
// function after fs.Parse to collect the values plus set-ness.
func capacityFlags(fs *flag.FlagSet) func() capacity {
	maxProto := fs.Int("max-prototypes", 0, "cap the live prototype count K; 0 = unbounded")
	evict := fs.String("evict", "", "eviction policy under -max-prototypes: windecay (default) or recency")
	merge := fs.Bool("merge", false, "merge evicted prototypes into their nearest survivor instead of discarding them")
	return func() capacity {
		cp := capacity{maxProto: *maxProto, evict: *evict, merge: *merge}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "max-prototypes":
				cp.maxSet = true
			case "merge":
				cp.mergeSet = true
			}
		})
		return cp
	}
}

// applyCapacity re-caps a loaded model: with a positive cap the
// lowest-scoring prototypes are evicted (or merged) immediately, so a large
// trained model can be shrunk to a serving budget at startup; it also arms
// bounded eviction for any further online training. Flags the user did not
// pass keep the model file's persisted capacity configuration — in
// particular, -evict or -merge alone never removes a persisted cap
// (`-max-prototypes 0` removes it explicitly).
func applyCapacity(m *core.Model, cp capacity) error {
	if !cp.any() {
		return nil
	}
	max, policy, merge, err := resolveCapacity(m.Config(), cp)
	if err != nil {
		return err
	}
	return m.SetCapacity(max, policy, merge)
}

// resolveCapacity turns the flag values into concrete SetCapacity
// arguments against the model's persisted configuration: unset flags keep
// what the model carries, and a nil policy means "keep the current one".
func resolveCapacity(cfg core.Config, cp capacity) (int, core.EvictionPolicy, bool, error) {
	if !cp.maxSet {
		cp.maxProto = cfg.MaxPrototypes
	}
	if cp.maxProto <= 0 && (cp.evict != "" || cp.mergeSet) {
		// -evict/-merge on a model with no cap (persisted or given) would
		// arm nothing: SetCapacity(0, …) means "uncapped". An explicit
		// `-max-prototypes 0` alone still removes a persisted cap.
		return 0, nil, false, errors.New("-evict/-merge need a capacity: pass -max-prototypes or load a model with a persisted cap")
	}
	if !cp.mergeSet {
		cp.merge = cfg.MergeOnEvict
	}
	var policy core.EvictionPolicy
	if cp.evict != "" {
		// An explicit -evict replaces the persisted policy; otherwise nil
		// keeps whatever the model file carries.
		var err error
		if policy, err = core.ParseEvictionPolicy(cp.evict); err != nil {
			return 0, nil, false, err
		}
	}
	return cp.maxProto, policy, cp.merge, nil
}

func cmdTrain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "", "input dataset CSV (required)")
	a := fs.Float64("a", 0.25, "quantization coefficient a in (0,1]")
	gamma := fs.Float64("gamma", 0.01, "convergence threshold γ")
	pairs := fs.Int("pairs", 5000, "maximum number of training query/answer pairs")
	thetaMean := fs.Float64("theta", 0, "mean query radius µθ (default: 10% of the average attribute range)")
	seed := fs.Int64("seed", 1, "random seed for the query workload")
	output := fs.String("o", "model.json", "output model path")
	dataDir := fs.String("data-dir", "", "durable model directory: WAL-log every training pair and checkpoint the result, resumable by serve -data-dir")
	walSync := fs.String("wal-sync", "group", "WAL fsync policy under -data-dir: group, always or none")
	snapEvery := fs.Int("snapshot-every", 4096, "training pairs between WAL snapshot rotations under -data-dir")
	url := fs.String("url", "", "ship the computed training pairs to a running `llmq serve` /train endpoint instead of writing a model file")
	getCap := capacityFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" && (*walSync != "group" || *snapEvery != 4096) {
		return errors.New("train: -wal-sync/-snapshot-every need -data-dir")
	}
	if *url != "" && (*dataDir != "" || getCap().any()) {
		// The remote server owns its model's durability and capacity; the
		// client only computes and ships the pairs.
		return errors.New("train: -url is remote training; -data-dir/-max-prototypes belong to the server")
	}
	if *data == "" {
		return errors.New("train: -data is required")
	}
	e, ds, err := loadExecutor(*data, 0)
	if err != nil {
		return err
	}
	b, err := ds.Bounds()
	if err != nil {
		return err
	}
	lo, hi, span := b.InputMin[0], b.InputMax[0], 0.0
	for j := range b.InputMax {
		if b.InputMin[j] < lo {
			lo = b.InputMin[j]
		}
		if b.InputMax[j] > hi {
			hi = b.InputMax[j]
		}
		span += b.InputMax[j] - b.InputMin[j]
	}
	span /= float64(ds.Dim())
	theta := *thetaMean
	if theta <= 0 {
		theta = span / 10
	}
	gen, err := workload.NewGenerator(workload.GenConfig{
		Dim:         ds.Dim(),
		CenterLo:    lo,
		CenterHi:    hi,
		ThetaMean:   theta,
		ThetaStdDev: theta / 4,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	h, err := workload.NewHarness(e, gen)
	if err != nil {
		return err
	}
	if *url != "" {
		// Remote training: this node plays the engine — it executes the
		// workload to produce exact (query, answer) pairs — and the serving
		// node absorbs them through /train, shedding and retrying under its
		// own admission control.
		pp, err := h.TrainingPairs(*pairs)
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		return remoteTrain(ctx, out, *url, pp)
	}
	cfg := core.DefaultConfig(ds.Dim())
	cfg.ResolutionA = *a
	cfg.Gamma = *gamma
	cfg.Vigilance = *a * (span*sqrtDim(ds.Dim()) + theta)
	if cp := getCap(); cp.maxProto > 0 {
		policy, err := core.ParseEvictionPolicy(cp.evict)
		if err != nil {
			return err
		}
		cfg.MaxPrototypes = cp.maxProto
		cfg.Eviction = policy
		cfg.MergeOnEvict = cp.merge
	} else if cp.evict != "" || cp.mergeSet {
		// Unlike serve/batch — where a bare -evict/-merge rewrites the
		// policy of a model file's persisted cap — train has no persisted
		// cap to modify: a policy with no capacity would silently train an
		// unbounded model.
		return errors.New("train: -evict/-merge require -max-prototypes")
	}
	start := time.Now()
	var (
		m          *core.Model
		res        core.TrainingResult
		trainPairs []core.TrainingPair
	)
	if *dataDir != "" {
		// Durable training: every pair is write-ahead logged before it is
		// applied and the result is checkpointed on Close, so the directory
		// is resumable (serve -data-dir, or another train run) and a crash
		// mid-training loses at most the unsynced tail. An existing
		// directory is recovered first and trained on top — its embedded
		// configuration wins over the flags.
		mode, err := wal.ParseSyncMode(*walSync)
		if err != nil {
			return err
		}
		trainPairs, err = h.TrainingPairs(*pairs)
		if err != nil {
			return err
		}
		d, err := core.Recover(*dataDir, cfg, core.DurableOptions{
			WAL:           wal.Options{Mode: mode},
			SnapshotEvery: *snapEvery,
		})
		if err != nil {
			return err
		}
		if prior := d.Model().Steps(); prior > 0 {
			fmt.Fprintf(out, "recovered %d prior training pairs (K=%d) from %s\n", prior, d.Model().K(), *dataDir)
		}
		res, err = d.TrainBatch(trainPairs)
		if err != nil {
			_ = d.Close()
			return err
		}
		if err := d.Close(); err != nil {
			return err
		}
		m = d.Model()
	} else {
		var err error
		m, res, trainPairs, err = h.TrainModel(cfg, *pairs)
		if err != nil {
			return err
		}
	}
	// The model file appears atomically (temp + fsync + rename): a crash or
	// ENOSPC mid-write leaves the previous file, never a torn JSON prefix a
	// query-processing node would fail to load.
	if err := wal.WriteFileAtomic(*output, m.Save); err != nil {
		return err
	}
	fmt.Fprintf(out, "trained on %d query/answer pairs in %v: K=%d prototypes, converged=%v (Γ=%.4g)\n",
		len(trainPairs), time.Since(start).Round(time.Millisecond), res.K, res.Converged, res.FinalGamma)
	fmt.Fprintf(out, "model written to %s\n", *output)
	return nil
}

func sqrtDim(d int) float64 {
	s := 1.0
	for i := 0; i < 20; i++ {
		s = 0.5 * (s + float64(d)/s)
	}
	return s
}

func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	data := fs.String("data", "", "dataset CSV backing the relation (required)")
	modelPath := fs.String("model", "", "trained model JSON (required for APPROX statements)")
	sql := fs.String("sql", "", "analytics statement to execute (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *sql == "" {
		return errors.New("query: -data and -sql are required")
	}
	stmt, err := sqlfront.Parse(*sql)
	if err != nil {
		return err
	}
	e, ds, err := loadExecutor(*data, 0)
	if err != nil {
		return err
	}
	if len(stmt.Center) != ds.Dim() {
		return fmt.Errorf("query centre has %d coordinates, relation has %d input attributes", len(stmt.Center), ds.Dim())
	}
	var model *core.Model
	if stmt.Approx {
		if *modelPath == "" {
			return errors.New("query: APPROX statements need -model")
		}
		model, err = loadModel(*modelPath, ds.Dim())
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
	}
	return executeStatement(context.Background(), out, stmt, e, model)
}

// loadModel loads a trained model and validates it against the relation's
// dimensionality up front, so APPROX statements cannot fail one by one with
// per-query dimension errors later.
func loadModel(path string, dim int) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		return nil, err
	}
	if m.K() == 0 {
		return nil, errors.New("the loaded model has no prototypes")
	}
	if m.Config().Dim != dim {
		return nil, fmt.Errorf("model dim %d does not match the relation's %d input attributes",
			m.Config().Dim, dim)
	}
	return m, nil
}

// cmdBatch answers a whole file of analytics statements (one per line; blank
// lines and #-comments are skipped). Each statement runs on a worker of
// exec.ForEachParallelCtx's bounded pool through the same execution path as
// the query subcommand, so an interrupt (Ctrl-C) stops EXACT and APPROX
// sheets alike. Output order always matches input order.
func cmdBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	data := fs.String("data", "", "dataset CSV backing the relation (required unless -url)")
	modelPath := fs.String("model", "", "trained model JSON (required for APPROX statements)")
	file := fs.String("file", "", "statement file, one per line (required; '-' reads stdin)")
	url := fs.String("url", "", "ship the statements to a running `llmq serve` instance (e.g. http://localhost:8080) instead of executing locally")
	getCap := capacityFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url != "" {
		if *data != "" || *modelPath != "" || getCap().any() {
			return errors.New("batch: -url is remote execution; -data/-model/-max-prototypes belong to the server")
		}
		if *file == "" {
			return errors.New("batch: -file is required")
		}
	} else if *data == "" || *file == "" {
		return errors.New("batch: -data and -file are required")
	}
	var src io.Reader = os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	var sqls []string
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sqls = append(sqls, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(sqls) == 0 {
		return errors.New("batch: no statements in input")
	}
	// An interrupt (Ctrl-C) cancels the batch. Remotely it stops between
	// chunks and mid-retry; locally it cancels the pool and the EXACT scans
	// in flight, and statements that already finished still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *url != "" {
		// Remote mode: the server parses, admits and executes; the client
		// retries sheds with backoff.
		return remoteBatch(ctx, out, *url, sqls)
	}
	stmts := make([]*sqlfront.Statement, len(sqls))
	needModel := false
	for i, sql := range sqls {
		stmt, err := sqlfront.Parse(sql)
		if err != nil {
			return fmt.Errorf("batch: statement %d: %w", i+1, err)
		}
		stmts[i] = stmt
		if stmt.Approx {
			needModel = true
		}
	}
	e, ds, err := loadExecutor(*data, 0)
	if err != nil {
		return err
	}
	var model *core.Model
	if needModel {
		if *modelPath == "" {
			return errors.New("batch: APPROX statements need -model")
		}
		model, err = loadModel(*modelPath, ds.Dim())
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		if err := applyCapacity(model, getCap()); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
	} else if getCap().any() {
		// No APPROX statement loads a model, so the flags would silently
		// do nothing.
		return errors.New("batch: -max-prototypes/-evict/-merge need APPROX statements (a loaded model)")
	}
	for i, stmt := range stmts {
		if len(stmt.Center) != ds.Dim() {
			return fmt.Errorf("batch: statement %d centre has %d coordinates, relation has %d input attributes",
				i+1, len(stmt.Center), ds.Dim())
		}
	}
	start := time.Now()
	bufs := make([]bytes.Buffer, len(stmts))
	errs := make([]error, len(stmts))
	ran := make([]bool, len(stmts))
	if err := exec.ForEachParallelCtx(ctx, len(stmts), func(i int) {
		errs[i] = executeStatement(ctx, &bufs[i], stmts[i], e, model)
		ran[i] = true
	}); err != nil {
		fmt.Fprintf(out, "batch interrupted: %v\n", err)
		for i := range errs {
			if !ran[i] {
				errs[i] = fmt.Errorf("skipped: %w", err)
			}
		}
	}
	for i := range stmts {
		if errs[i] != nil {
			fmt.Fprintf(out, "[%d] error: %v\n", i+1, errs[i])
			continue
		}
		fmt.Fprintf(out, "[%d] %s", i+1, bufs[i].String())
	}
	fmt.Fprintf(out, "answered %d statements in %v\n", len(stmts), time.Since(start).Round(time.Microsecond))
	return nil
}

func executeStatement(ctx context.Context, out io.Writer, stmt *sqlfront.Statement, e *exec.Executor, model *core.Model) error {
	rq := exec.RadiusQuery{Center: stmt.Center, Theta: stmt.Theta, P: stmt.Norm}
	switch stmt.Kind {
	case sqlfront.StmtMean:
		if stmt.Approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return err
			}
			start := time.Now()
			yhat, err := model.PredictMean(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "approx AVG(%s) = %.6g   [model, %v, no data access]\n",
				stmt.Output, yhat, time.Since(start).Round(time.Microsecond))
			return nil
		}
		res, err := e.MeanCtx(ctx, rq)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "AVG(%s) = %.6g   [exact over %d tuples, %v]\n", stmt.Output, res.Mean, res.Count, res.Elapsed.Round(time.Microsecond))
		return nil
	case sqlfront.StmtRegression:
		if stmt.Approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return err
			}
			start := time.Now()
			locals, err := model.Regression(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "approx REGRESSION(%s): %d local linear model(s) [model, %v, no data access]\n",
				stmt.Output, len(locals), time.Since(start).Round(time.Microsecond))
			for i, lm := range locals {
				fmt.Fprintf(out, "  S[%d] (weight %.3f, around %s, θ=%.3g): %s\n", i, lm.Weight, lm.Center, lm.Theta, lm)
			}
			return nil
		}
		res, err := e.RegressionCtx(ctx, rq)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "REGRESSION(%s) over %d tuples [%v]: intercept=%.6g slope=%v  (FVU=%.4g, R²=%.4g)\n",
			stmt.Output, res.Count, res.Elapsed.Round(time.Microsecond), res.Intercept, res.Slope, res.FVU, res.CoD)
		return nil
	case sqlfront.StmtValue:
		if len(stmt.At) != len(stmt.Center) {
			return fmt.Errorf("AT point has %d coordinates, centre has %d", len(stmt.At), len(stmt.Center))
		}
		if stmt.Approx {
			q, err := core.NewQuery(stmt.Center, stmt.Theta)
			if err != nil {
				return err
			}
			uhat, err := model.PredictValue(q, stmt.At)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "approx VALUE(%s) at %v = %.6g   [model, no data access]\n", stmt.Output, stmt.At, uhat)
			return nil
		}
		res, err := e.RegressionCtx(ctx, rq)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "VALUE(%s) at %v ≈ %.6g   [exact local regression over %d tuples]\n",
			stmt.Output, stmt.At, res.Predict(stmt.At), res.Count)
		return nil
	default:
		return fmt.Errorf("unsupported statement kind %v", stmt.Kind)
	}
}

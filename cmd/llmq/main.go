// Command llmq is the end-to-end tool for the query-driven LLM analytics
// library: it generates synthetic datasets, trains models from query
// workloads executed against the in-memory DBMS, and answers SQL-like
// analytics statements either exactly or through a trained model.
//
// Typical session:
//
//	llmq generate -dataset R1 -n 20000 -dim 2 -o r1.csv
//	llmq train -data r1.csv -a 0.25 -pairs 4000 -o model.bin
//	llmq query -data r1.csv -model model.bin \
//	    -sql "SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"
//	llmq query -data r1.csv \
//	    -sql "SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/exec"
	"llmq/internal/serve"
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
  batch     answer a file of statements (one per line) as one sheet, locally or on a running server
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

// loadExecutor parses a CSV relation straight into the flat arrays the exact
// executor indexes and builds its grid, whose cell is a tenth of the mean
// attribute span (1 for a relation of zero span). The relation is returned for the
// caller's boot decisions (dimension, bounds, a router's partition); once the
// caller drops it, the process holds the relation only as the grid's
// clustered copy.
func loadExecutor(path string) (*exec.Executor, *dataset.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(strings.ToLower(strings.TrimSuffix(path, ".csv")), "/")
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	rel, err := dataset.ParseCSV(name, f)
	if err != nil {
		return nil, nil, err
	}
	cellSize := meanSpan(rel.Bounds) / 10
	if cellSize <= 0 {
		cellSize = 1
	}
	e, err := exec.NewExecutor(rel.X, rel.U, rel.InputNames, rel.OutputName, cellSize)
	if err != nil {
		return nil, nil, err
	}
	return e, rel, nil
}

// meanSpan is the mean over the input attributes of max − min.
func meanSpan(b dataset.Bounds) float64 {
	span := 0.0
	for j := range b.InputMax {
		span += b.InputMax[j] - b.InputMin[j]
	}
	return span / float64(len(b.InputMax))
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
// shared by the train and serve subcommands; call the returned
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

// applyCapacity re-caps a model whose configuration is cfg through set
// (Model.SetCapacity, or the WAL-logged Durable.SetCapacity) when the user
// passed any capacity flag: with a positive cap the lowest-scoring
// prototypes are evicted (or merged) immediately, so a large trained model
// can be shrunk to a serving budget at startup; it also arms bounded
// eviction for any further online training.
func applyCapacity(cfg core.Config, cp capacity, set func(max int, policy core.Eviction, merge bool) error) error {
	if !cp.any() {
		return nil
	}
	c, err := resolveCapacity(cfg, cp)
	if err != nil {
		return err
	}
	return set(c.MaxPrototypes, c.Eviction, c.MergeOnEvict)
}

// resolveCapacity is the one reading of the capacity flags: it returns cfg
// with MaxPrototypes, Eviction and MergeOnEvict set from the flags the user
// passed, keeping cfg's value for every flag they did not. cfg is the
// configuration a fresh model is built with (train) or a loaded model's
// Config() (serve), so -evict or -merge alone never removes a persisted cap
// (`-max-prototypes 0` removes it explicitly) and -evict alone keeps a
// persisted merge setting.
func resolveCapacity(cfg core.Config, cp capacity) (core.Config, error) {
	if !cp.any() {
		return cfg, nil
	}
	if cp.maxSet {
		cfg.MaxPrototypes = cp.maxProto
	}
	if cfg.MaxPrototypes <= 0 && (cp.evict != "" || cp.mergeSet) {
		// -evict/-merge on a model with no cap (persisted or given) would
		// arm nothing: SetCapacity(0, …) means "uncapped". An explicit
		// `-max-prototypes 0` alone still removes a persisted cap.
		return cfg, errors.New("-evict/-merge need a capacity: pass -max-prototypes or load a model with a persisted cap")
	}
	if cp.mergeSet {
		cfg.MergeOnEvict = cp.merge
	}
	if cp.evict != "" {
		// An explicit -evict replaces the persisted policy and its half-life.
		var err error
		if cfg.Eviction, err = core.ParseEviction(cp.evict); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func cmdTrain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "", "input dataset CSV (required)")
	a := fs.Float64("a", 0.25, "quantization coefficient a in (0,1]")
	gamma := fs.Float64("gamma", 0.01, "convergence threshold γ")
	pairs := fs.Int("pairs", 5000, "maximum number of training query/answer pairs")
	thetaMean := fs.Float64("theta", 0, "mean query radius µθ (default: 10% of the average attribute range)")
	seed := fs.Int64("seed", 1, "random seed for the query workload")
	output := fs.String("o", "model.bin", "output model path")
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
	e, rel, err := loadExecutor(*data)
	if err != nil {
		return err
	}
	b := rel.Bounds
	lo, hi, span := slices.Min(b.InputMin), slices.Max(b.InputMax), meanSpan(b)
	theta := *thetaMean
	if theta <= 0 {
		theta = span / 10
	}
	gen, err := workload.NewGenerator(workload.GenConfig{
		Dim:         rel.Dim(),
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
	cfg := core.DefaultConfig(rel.Dim())
	cfg.ResolutionA = *a
	cfg.Gamma = *gamma
	cfg.Vigilance = vigilance(*a, span, theta, rel.Dim())
	cp := getCap()
	if cp.maxProto <= 0 && (cp.evict != "" || cp.mergeSet) {
		// Unlike serve — where a bare -evict/-merge rewrites the
		// policy of a model file's persisted cap — train has no persisted
		// cap to modify: a policy with no capacity would silently train an
		// unbounded model.
		return errors.New("train: -evict/-merge require -max-prototypes")
	}
	if cfg, err = resolveCapacity(cfg, cp); err != nil {
		return err
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
		if err := refuseShardedDir(*dataDir); err != nil {
			return fmt.Errorf("train: %w", err)
		}
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
	// ENOSPC mid-write leaves the previous file, never a torn frame prefix a
	// query-processing node would fail to load.
	if err := wal.WriteFileAtomic(*output, m.Save); err != nil {
		return err
	}
	fmt.Fprintf(out, "trained on %d query/answer pairs in %v: K=%d prototypes, converged=%v (Γ=%.4g)\n",
		len(trainPairs), time.Since(start).Round(time.Millisecond), res.K, res.Converged, res.FinalGamma)
	fmt.Fprintf(out, "model written to %s\n", *output)
	return nil
}

// vigilance is the ρ the CLI trains with: the paper's a(√d + 1) for the
// unit cube, rescaled to the data, so the mean attribute span multiplies √d
// and the mean query radius θ takes the place of the 1. train and a fresh
// serve -data-dir both derive ρ here.
func vigilance(a, span, theta float64, d int) float64 {
	return a * (span*math.Sqrt(float64(d)) + theta)
}

// cmdQuery answers one statement through the in-process server (see
// localClient) and prints its answer; a statement the server refuses or
// cannot answer is the command's error.
func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	data := fs.String("data", "", "dataset CSV backing the relation (required)")
	modelPath := fs.String("model", "", "trained model file (required for APPROX statements)")
	sql := fs.String("sql", "", "analytics statement to execute (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *sql == "" {
		return errors.New("query: -data and -sql are required")
	}
	c, err := localClient(*data, *modelPath)
	if err != nil {
		return err
	}
	var f serve.BatchFrame
	if err := sendSheet(context.Background(), c, inProcessURL, []string{*sql}, func(_ int, fr serve.BatchFrame) { f = fr }); err != nil {
		return err
	}
	if f.Error != "" {
		return errors.New(f.Error)
	}
	printAnswer(out, f.QueryResponse)
	return nil
}

// localClient boots the relation in the CSV file data, and the model file
// modelPath unless it is empty, into the handler `llmq serve` runs, without
// a query deadline, and returns a client that reaches it in process: `llmq
// query` and `llmq batch -data` answer through the server's own /query/batch
// path, with no second evaluator beside it.
func localClient(data, modelPath string) (*http.Client, error) {
	e, rel, err := loadExecutor(data)
	if err != nil {
		return nil, err
	}
	var m *core.Model
	if modelPath != "" {
		if m, err = loadModel(modelPath, rel.Dim()); err != nil {
			return nil, fmt.Errorf("%s: %w", modelPath, err)
		}
	}
	s, err := serve.New(e, m, serve.WithLimits(serve.Limits{QueryTimeout: -1}))
	if err != nil {
		return nil, err
	}
	return &http.Client{Transport: inProcess{s}}, nil
}

// inProcessURL is the base URL localClient's requests carry; the in-process
// transport never resolves it.
const inProcessURL = "http://in-process"

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
// lines and #-comments are skipped) as /query/batch sheets: with -url on a
// running `llmq serve`, with -data on the same server booted in process (see
// localClient). Either way the server evaluates the statements over its
// worker pool and the answers print in input order as they stream in, each
// refused statement as its positional error line. An interrupt (Ctrl-C)
// cancels the sheet.
func cmdBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	data := fs.String("data", "", "dataset CSV backing the relation (required unless -url)")
	modelPath := fs.String("model", "", "trained model file (required for APPROX statements)")
	file := fs.String("file", "", "statement file, one per line (required; '-' reads stdin)")
	url := fs.String("url", "", "ship the statements to a running `llmq serve` instance (e.g. http://localhost:8080) instead of executing locally")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *url != "" && (*data != "" || *modelPath != ""):
		return errors.New("batch: -url is remote execution; -data/-model belong to the server")
	case *file == "" || (*url == "" && *data == ""):
		return errors.New("batch: -file and one of -data or -url are required")
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
	c, base := http.DefaultClient, *url
	if *url == "" {
		var err error
		if c, err = localClient(*data, *modelPath); err != nil {
			return err
		}
		base = inProcessURL
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	w := bufio.NewWriter(out)
	err := sendSheet(ctx, c, base, sqls, func(i int, f serve.BatchFrame) {
		fmt.Fprintf(w, "[%d] ", i+1)
		if f.Error != "" {
			fmt.Fprintf(w, "error: %s\n", f.Error)
			return
		}
		printAnswer(w, f.QueryResponse)
	})
	if err == nil {
		fmt.Fprintf(w, "answered %d statements in %v\n", len(sqls), time.Since(start).Round(time.Microsecond))
	}
	return errors.Join(err, w.Flush())
}

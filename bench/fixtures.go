package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	lexec "llmq/internal/exec"
	"llmq/internal/synth"
	"llmq/internal/wal"
)

// env is one benchmark invocation: where the repository is, the binary
// under test, a private temp directory, and every child it has started.
type env struct {
	ctx   context.Context
	root  string // repository root (the directory of `module llmq`)
	build string // <root>/.bench_build: binaries and temp files, git-ignored
	tmp   string // private to this invocation, removed on exit
	llmq  string // the llmq binary under test
	procs procs
	fx    map[string]*fixture // built once per invocation, keyed by workload
}

// findRoot walks up from the working directory to the go.mod that declares
// `module llmq`. The benchmark is a nested module (llmq/bench), so its own
// go.mod does not match and the walk continues to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module llmq" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the llmq repository: no go.mod declaring `module llmq` above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the repository, creates the invocation's temp directory
// under .bench_build (everything the benchmark writes stays inside the
// checkout) and builds ./cmd/llmq at the current commit unless a prebuilt
// binary was given.
func newEnv(ctx context.Context, llmqPath string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, root: root, build: filepath.Join(root, ".bench_build"), fx: make(map[string]*fixture)}
	if err := os.MkdirAll(filepath.Join(e.build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(e.build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	if llmqPath != "" {
		if e.llmq, err = filepath.Abs(llmqPath); err != nil {
			return nil, err
		}
		return e, nil
	}
	e.llmq = filepath.Join(e.tmp, "llmq")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.llmq, "./cmd/llmq")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.cleanup()
		return nil, fmt.Errorf("go build ./cmd/llmq: %v\n%s", err, out)
	}
	return e, nil
}

// cleanup kills every child and removes the temp directory; it runs on
// every exit path, a failed check and SIGINT included.
func (e *env) cleanup() {
	e.procs.killAll()
	_ = os.RemoveAll(e.tmp)
}

// commit is the short hash of the checked-out commit, or "unknown" in a
// checkout that is not a git repository.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// relation is a CSV-backed relation loaded in-process exactly as cmd/llmq
// loads it (same name rule, same automatic grid cell), with the load
// stages timed: they are the per-layer parts of setup_s.
type relation struct {
	ds        *dataset.Dataset
	exec      *lexec.Executor
	readCSVMS float64
	engineMS  float64
	indexMS   float64
}

// writeRelation generates relation R1 (the sensor surrogate) as r1.csv
// under dir.
func writeRelation(dir string, n, dim int, seed int64) (string, error) {
	pts, err := synth.Generate(synth.R1Config(n, dim, seed))
	if err != nil {
		return "", err
	}
	ds, err := dataset.FromPoints("R1", pts.Xs, pts.Us)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "r1.csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ds.WriteCSV(w); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// loadRelation mirrors cmd/llmq's loadExecutor: ReadCSV, LoadDataset, a
// grid index whose cell is a tenth of the mean attribute span.
func loadRelation(path string) (*relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &relation{}
	t := time.Now()
	if r.ds, err = dataset.ReadCSV("r1", f); err != nil {
		return nil, err
	}
	r.readCSVMS = msSince(t)
	t = time.Now()
	tab, err := engine.NewCatalog().LoadDataset("r1", r.ds)
	if err != nil {
		return nil, err
	}
	r.engineMS = msSince(t)
	b, err := r.ds.Bounds()
	if err != nil {
		return nil, err
	}
	span := 0.0
	for j := range b.InputMax {
		span += b.InputMax[j] - b.InputMin[j]
	}
	cell := span / float64(r.ds.Dim()) / 10
	t = time.Now()
	if r.exec, err = lexec.NewExecutorWithGrid(tab, r.ds.InputNames, r.ds.OutputName, cell); err != nil {
		return nil, err
	}
	r.indexMS = msSince(t)
	return r, nil
}

// loadModel loads a model file, timing core.Load.
func loadModel(path string) (*core.Model, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	t := time.Now()
	m, err := core.Load(f)
	return m, msSince(t), err
}

// fixture is everything one workload needs on disk and in-process. It is
// built once per invocation and reused by every round of -aa.
type fixture struct {
	dir       string
	serveArgs []string // `llmq serve` arguments (without -addr)
	rel       *relation
	model     *core.Model // the model file loaded in-process (read workloads)
	loadMS    float64     // core.Load of the model file
	hash      string      // SHA-256 of the generated request bytes
	// sheet_wide
	centers     [][]float64
	buildPairs  int
	buildUSPair float64
	// train_durable
	stream   *trainStream
	seedDir  string      // pristine seeded data directory, copied per run
	ref      *core.Model // in-process reference trained on the whole stream
	refHash  string
	trainCfg core.Config
}

// trainCLI runs `llmq train` with the paper's defaults (a=0.25, γ=0.01):
// the small-K model the APPROX statements of the d=2 workloads hit.
func (e *env) trainCLI(data, out string, seed int64) error {
	cmd := exec.CommandContext(e.ctx, e.llmq, "train", "-data", data, "-pairs", "5000",
		"-seed", fmt.Sprint(seed), "-o", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("llmq train: %v\n%s", err, b)
	}
	return nil
}

// cliFixture is the fixture of point_approx and exact_mixed: relation R1
// at d=2 with rows tuples, a model from `llmq train -pairs 5000`, served
// with `llmq serve -data -model`.
func (e *env) cliFixture(name string, rows int, seed int64) (*fixture, error) {
	fx := &fixture{dir: filepath.Join(e.tmp, name)}
	if err := os.MkdirAll(fx.dir, 0o755); err != nil {
		return nil, err
	}
	csv, err := writeRelation(fx.dir, rows, 2, seed)
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(fx.dir, "model.json")
	if err := e.trainCLI(csv, modelPath, seed); err != nil {
		return nil, err
	}
	if fx.rel, err = loadRelation(csv); err != nil {
		return nil, err
	}
	if fx.model, fx.loadMS, err = loadModel(modelPath); err != nil {
		return nil, err
	}
	fx.serveArgs = []string{"-data", csv, "-model", modelPath}
	fx.hash, err = streamHash(name, seed, nil)
	return fx, err
}

// wideVigilance makes nearly every training pair of the clustered stream
// spawn a prototype (pairs of one cluster are ~0.16 apart), so the model
// reaches its target K in about K pairs instead of several K.
const wideVigilance = 0.05

// wideFixture is sheet_wide's fixture: relation R1 at d=8 and a model
// grown in-process through core.NewModel + TrainBatch until K reaches
// targetK (γ=1e-12, so it never freezes), written with Model.Save.
func (e *env) wideFixture(targetK int, seed int64) (*fixture, error) {
	fx := &fixture{dir: filepath.Join(e.tmp, wlSheet), centers: wideCenters(seed)}
	if err := os.MkdirAll(fx.dir, 0o755); err != nil {
		return nil, err
	}
	csv, err := writeRelation(fx.dir, 20000, wideDim, seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(wideDim)
	cfg.Vigilance = wideVigilance
	cfg.Gamma = 1e-12
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	r := newRNG(seed, tagClusters, 1, 0)
	t := time.Now()
	for m.K() < targetK {
		pairs := make([]core.TrainingPair, 64)
		for i := range pairs {
			c, theta := drawWide(r, fx.centers)
			pairs[i] = core.TrainingPair{Query: core.Query{Center: c, Theta: theta}, Answer: synth.SensorSurrogate(c)}
		}
		if _, err := m.TrainBatch(pairs); err != nil {
			return nil, err
		}
		fx.buildPairs += len(pairs)
		if fx.buildPairs > 20*targetK {
			return nil, fmt.Errorf("wide model stuck at K=%d after %d pairs", m.K(), fx.buildPairs)
		}
	}
	fx.buildUSPair = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(fx.buildPairs)
	modelPath := filepath.Join(fx.dir, "model.json")
	if err := wal.WriteFileAtomic(modelPath, m.Save); err != nil {
		return nil, err
	}
	if fx.rel, err = loadRelation(csv); err != nil {
		return nil, err
	}
	if fx.model, fx.loadMS, err = loadModel(modelPath); err != nil {
		return nil, err
	}
	fx.serveArgs = []string{"-data", csv, "-model", modelPath}
	fx.hash, err = streamHash(wlSheet, seed, nil)
	return fx, err
}

// trainConfig is train_durable's model configuration. The data directory's
// first snapshot carries it, so the server trains under it whatever its
// flags say: a small vigilance and a 2 000-prototype cap keep eviction and
// epoch rebuilds running, and the disabled termination rule keeps the model
// from freezing (a fresh directory under the CLI's γ=0.01 converges after a
// few hundred pairs and turns the stream into WAL-only no-ops).
func trainConfig() core.Config {
	cfg := core.DefaultConfig(2)
	cfg.Vigilance = 0.03
	cfg.Gamma = 1e-12
	cfg.MinGammaSteps = 1 << 30
	cfg.MaxPrototypes = 2000
	return cfg
}

// durableFixture is train_durable's fixture: relation R1 at d=2, the whole
// training stream, a data directory seeded in-process with batch 0
// (core.Recover + TrainBatch + Close, which leaves one snapshot), and the
// reference model: the same stream through a plain in-memory core.Model,
// whose StateHash every recovered server must reproduce.
func (e *env) durableFixture(batches int, seed int64) (*fixture, error) {
	fx := &fixture{dir: filepath.Join(e.tmp, wlTrain), trainCfg: trainConfig()}
	if err := os.MkdirAll(fx.dir, 0o755); err != nil {
		return nil, err
	}
	csv, err := writeRelation(fx.dir, 20000, 2, seed)
	if err != nil {
		return nil, err
	}
	if fx.stream, err = newTrainStream(seed, batches); err != nil {
		return nil, err
	}
	fx.seedDir = filepath.Join(fx.dir, "seed")
	d, err := core.Recover(fx.seedDir, fx.trainCfg, core.DurableOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := d.TrainBatch(fx.stream.batches[0]); err != nil {
		_ = d.Close()
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if fx.ref, err = core.NewModel(fx.trainCfg); err != nil {
		return nil, err
	}
	for _, b := range fx.stream.batches {
		if _, err := fx.ref.TrainBatch(b); err != nil {
			return nil, err
		}
	}
	if fx.refHash, err = fx.ref.StateHash(); err != nil {
		return nil, err
	}
	if fx.rel, err = loadRelation(csv); err != nil {
		return nil, err
	}
	fx.serveArgs = []string{"-data", csv}
	fx.hash, err = streamHash(wlTrain, seed, fx.stream)
	return fx, err
}

// copyDir copies a flat directory (a WAL data directory holds only files).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// header is the line that opens every run: what was measured, on what.
func (e *env) header(seed int64) string {
	return fmt.Sprintf("llmq bench: seed=%d commit=%s %s nproc=%d GOMAXPROCS=%d connections=2",
		seed, e.commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

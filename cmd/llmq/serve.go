package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/exec"
	"llmq/internal/replica"
	"llmq/internal/resilience"
	"llmq/internal/serve"
	"llmq/internal/wal"
)

// serveConfig is the parsed flag set of the serve subcommand.
type serveConfig struct {
	data, model, addr string
	dataDir, walSync  string
	walMode           wal.SyncMode // walSync, parsed
	snapEvery         int
	follow            string
	promoteAfter      time.Duration
	route, partition  string
	pprof             string
	capacity          capacity
	limits            serve.Limits
}

// parseServeFlags parses and validates the serve subcommand's arguments.
func parseServeFlags(args []string) (*serveConfig, error) {
	c := &serveConfig{}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&c.data, "data", "", "dataset CSV backing the relation (required)")
	fs.StringVar(&c.model, "model", "", "trained model file (optional; required for APPROX statements)")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address, host:port")
	fs.StringVar(&c.dataDir, "data-dir", "", "durable model directory: recover the model from its snapshots+WAL on boot and WAL-log /train traffic (mutually exclusive with -model)")
	fs.StringVar(&c.walSync, "wal-sync", "group", "WAL fsync policy under -data-dir: group, always or none")
	fs.IntVar(&c.snapEvery, "snapshot-every", 4096, "training pairs between WAL snapshot rotations under -data-dir")
	fs.StringVar(&c.follow, "follow", "", "replicate a primary `llmq serve` instance at this base URL into -data-dir and serve read-only from it (POST /promote, or -promote-after, turns this instance into the primary)")
	fs.DurationVar(&c.promoteAfter, "promote-after", 0, "with -follow: auto-promote to primary after this long without primary contact; 0 requires an explicit POST /promote")
	fs.StringVar(&c.route, "route", "", "router mode: front remote shard servers, `shard0=URL[|followerURL...],shard1=...` (scans spread across a shard's followers; training goes to its primary)")
	fs.StringVar(&c.partition, "partition", "", "with -route: shards.json manifest pinning the partition the shards were trained under (default: rebuild it from -data, sound when this router is the sole trainer)")
	fs.StringVar(&c.pprof, "pprof", "", "also serve net/http/pprof profiling endpoints on this host:port (side listener, never on the public address)")
	l := &c.limits
	fs.DurationVar(&l.QueryTimeout, "query-timeout", 30*time.Second, "per-request deadline on /query and /query/batch; 0 disables")
	fs.IntVar(&l.QueryConcurrency, "admit-queries", 0, "admission capacity of the query class in statements (default: 4×GOMAXPROCS)")
	fs.IntVar(&l.TrainConcurrency, "admit-train", 0, "admission capacity of the train class in pairs (default: 8192)")
	fs.DurationVar(&l.AdmitWait, "admit-wait", 100*time.Millisecond, "how long a request may wait for admission before a 429 shed")
	fs.BoolVar(&l.DegradeExact, "degrade-exact", false, "during overload, answer EXACT-eligible statements from the model (marked \"degraded\": true) instead of shedding them")
	fs.IntVar(&l.MaxReplicationLag, "max-replication-lag", 0, "with -follow: records of replication lag past which /readyz reports not-ready (default 4096; negative disables)")
	getCap := capacityFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.capacity = getCap()
	var err error
	if c.walMode, err = wal.ParseSyncMode(c.walSync); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Limits semantics: 0 means default, negative disables.
	if l.QueryTimeout <= 0 {
		l.QueryTimeout = -1
	}
	if l.AdmitWait <= 0 {
		l.AdmitWait = -1
	}
	return c, c.validate()
}

// validate refuses flag combinations that name no coherent deployment.
func (c *serveConfig) validate() error {
	switch {
	case c.data == "":
		return errors.New("serve: -data is required")
	case c.follow != "" && c.dataDir == "":
		// The mirror must live somewhere durable: a follower without a
		// data dir could neither resume after a restart nor be promoted.
		return errors.New("serve: -follow needs -data-dir for the local mirror")
	case c.follow != "" && c.model != "":
		return errors.New("serve: -follow and -model are mutually exclusive (the model ships from the primary)")
	case c.follow != "" && c.capacity.any():
		// A follower's state is exactly what the primary ships; local
		// capacity flags would fork it. Re-cap on the primary instead —
		// its SetCapacity is a WAL record and replicates.
		return errors.New("serve: capacity flags belong to the primary; its SetCapacity replicates to followers")
	case c.dataDir != "" && c.model != "":
		// The data dir is the durable source of truth; loading a second
		// model beside it would leave /train traffic split between two
		// states. `llmq train -data-dir` seeds a directory from scratch.
		return errors.New("serve: -model and -data-dir are mutually exclusive")
	case c.dataDir == "" && (c.walSync != "group" || c.snapEvery != 4096):
		return errors.New("serve: -wal-sync/-snapshot-every need -data-dir")
	case c.promoteAfter != 0 && c.follow == "":
		return errors.New("serve: -promote-after needs -follow")
	case c.route != "" && (c.model != "" || c.dataDir != "" || c.follow != ""):
		return errors.New("serve: -route is exclusive with -model, -data-dir and -follow (the shards own the models)")
	case c.partition != "" && c.route == "":
		return errors.New("serve: -partition needs -route")
	}
	return nil
}

// cmdServe stands up the HTTP analytics service of internal/serve over one
// CSV-backed relation: the exact executor answers plain statements, and a
// trained model (optional) answers APPROX statements without data access.
//
// The port is bound before the dataset load and WAL recovery run, serving
// the serve.Recovering stub until the real handler is ready: an
// orchestrator restarting the process sees /healthz up immediately and
// /readyz flip from "recovering" to "ready" when replay finishes, instead
// of connection refusals it cannot tell apart from a dead host.
func cmdServe(args []string, out io.Writer) error {
	c, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Bind first, build second: the listener answers with the recovering
	// stub while the dataset loads and the WAL replays, then the real
	// handler is swapped in atomically.
	var root handlerSwitch
	root.Store(serve.Recovering())
	errc := make(chan error, 1)
	go func() { errc <- serveUntil(ctx, &root, ln, out, "(recovering)") }()
	s, closer, info, err := c.open(ctx)
	if err == nil && c.pprof != "" {
		var stopPprof func()
		if stopPprof, err = startPprof(c.pprof, out); err == nil {
			defer stopPprof()
		}
	}
	if err != nil {
		stop()
		<-errc
		if closer != nil {
			_ = closer.Close()
		}
		return fmt.Errorf("serve: %w", err)
	}
	root.Store(s)
	fmt.Fprintf(out, "llmq: ready, serving %s\n", info)
	serr := <-errc
	// The final checkpoint: pairs ingested since the last rotation are
	// folded into a fresh snapshot so the next boot replays nothing.
	if cerr := closer.Close(); cerr != nil && serr == nil {
		serr = fmt.Errorf("serve: close: %w", cerr)
	}
	return serr
}

// closerFunc adapts a function to io.Closer.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// open loads the relation once and stands the server up over whichever
// backend the flags name — a loaded or absent model, a recovered durable
// store, a replica of a remote primary, or remote shards behind a router.
// Each process holds at most one store. The returned closer takes the
// final checkpoint of the durable store the server trains into; info
// describes what is being served. Split from cmdServe so tests
// drive every construction path without binding a port.
func (c *serveConfig) open(ctx context.Context) (*serve.Server, io.Closer, string, error) {
	e, rel, err := loadExecutor(c.data)
	if err != nil {
		return nil, nil, "", err
	}
	var (
		s      *serve.Server
		closer io.Closer = closerFunc(func() error { return nil })
		shape  string
	)
	opt := serve.WithLimits(c.limits)
	switch {
	case c.route != "":
		s, shape, err = c.openRouter(ctx, e, rel, opt)
	case c.follow != "":
		s, closer, shape, err = c.openFollower(ctx, e, opt)
	case c.dataDir != "":
		s, closer, shape, err = c.openDurable(e, rel, opt)
	default:
		s, shape, err = c.openMemory(e, rel, opt)
	}
	if err != nil {
		return nil, nil, "", err
	}
	return s, closer, fmt.Sprintf("%q (%d tuples, %d input attributes) %s", rel.Name, rel.Len(), rel.Dim(), shape), nil
}

// openMemory serves the in-memory -model file, or no model (exact
// statements only). Capacity flags re-cap the model immediately and arm
// bounded eviction for further online training.
func (c *serveConfig) openMemory(e *exec.Executor, rel *dataset.Relation, opt serve.Option) (*serve.Server, string, error) {
	if c.model == "" {
		if c.capacity.any() {
			// Silently ignoring the flags would let an operator believe
			// a serving budget is armed when nothing is bounded.
			return nil, "", errors.New("-max-prototypes/-evict/-merge need -model")
		}
		s, err := serve.New(e, nil, opt)
		return s, "without a model (exact statements only)", err
	}
	m, err := loadModel(c.model, rel.Dim())
	if err != nil {
		return nil, "", err
	}
	if err := applyCapacity(m.Config(), c.capacity, m.SetCapacity); err != nil {
		return nil, "", err
	}
	s, err := serve.New(e, m, opt)
	return s, fmt.Sprintf("with a K=%d model", m.K()), err
}

// openDurable recovers (or freshly creates) the durable model in -data-dir
// and serves it: statements answer from the recovered state, and /train
// traffic is write-ahead logged. A fresh store starts an empty model with
// the paper's default configuration derived from the dataset; a recovered
// one keeps the configuration embedded in its snapshot. Capacity flags
// apply either way, through the store's WAL-logged SetCapacity: the re-cap
// is an admin record in the training order, so a crash replays it at
// exactly this point — and a follower replica re-caps at the same point of
// the stream.
func (c *serveConfig) openDurable(e *exec.Executor, rel *dataset.Relation, opt serve.Option) (*serve.Server, io.Closer, string, error) {
	if err := refuseShardedDir(c.dataDir); err != nil {
		return nil, nil, "", err
	}
	d, err := core.Recover(c.dataDir, defaultModelConfig(rel), core.DurableOptions{WAL: wal.Options{Mode: c.walMode}, SnapshotEvery: c.snapEvery})
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s: %w", c.dataDir, err)
	}
	if err := applyCapacity(d.Model().Config(), c.capacity, d.SetCapacity); err != nil {
		_ = d.Close()
		return nil, nil, "", fmt.Errorf("%s: %w", c.dataDir, err)
	}
	s, err := serve.NewDurable(e, d, opt)
	if err != nil {
		_ = d.Close()
		return nil, nil, "", err
	}
	m := d.Model()
	return s, d, fmt.Sprintf("with a durable K=%d model (%d steps, %s sync) in %s", m.K(), m.Steps(), c.walMode, c.dataDir), nil
}

// startPprof serves the net/http/pprof endpoints on their own listener, off
// the public address: profiles expose internals (and /debug/pprof/profile
// blocks for seconds), so they belong on a port the operator can firewall
// separately. The explicit mux keeps them off http.DefaultServeMux too.
func startPprof(addr string, out io.Writer) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(out, "llmq: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// openFollower wires a read-only follower: a replica mirroring the
// primary's WAL into -data-dir (started on ctx — it stops with the serve
// loop) and the HTTP handler reading from it. The follower serves APPROX
// and EXACT statements from its own replicated model throughout, refuses
// /train with a redirect to the primary, and becomes a writable primary on
// POST /promote or, with -promote-after, on its own once the primary has
// been unreachable that long.
func (c *serveConfig) openFollower(ctx context.Context, e *exec.Executor, opt serve.Option) (*serve.Server, io.Closer, string, error) {
	rep, err := replica.Open(replica.Options{
		Dir:           c.dataDir,
		Primary:       c.follow,
		PromoteAfter:  c.promoteAfter,
		WAL:           wal.Options{Mode: c.walMode},
		SnapshotEvery: c.snapEvery,
	})
	if err != nil {
		return nil, nil, "", err
	}
	s, err := serve.NewFollower(e, rep, opt)
	if err != nil {
		return nil, nil, "", err
	}
	go func() { _ = rep.Run(ctx) }()
	return s, rep, fmt.Sprintf("as a follower of %s (mirror in %s, %s sync)", c.follow, c.dataDir, c.walMode), nil
}

// handlerSwitch is an atomically swappable http.Handler: the listener
// serves the recovering stub through it until cmdServe stores the real
// server, without restarting the http.Server.
type handlerSwitch struct {
	h atomic.Pointer[http.Handler]
}

func (hs *handlerSwitch) Store(h http.Handler) { hs.h.Store(&h) }

func (hs *handlerSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*hs.h.Load()).ServeHTTP(w, r)
}

// shutdownTimeout bounds the graceful drain: in-flight handlers get this
// long to finish after the stop signal before Shutdown gives up.
const shutdownTimeout = 10 * time.Second

// serveUntil runs the HTTP server on ln until ctx is canceled — SIGINT or
// SIGTERM in production (cmdServe wires signal.NotifyContext); the smoke
// test cancels directly — and then shuts down gracefully. ctx doubles as
// the server's base context, so the request context of every in-flight
// statement sheet observes the cancellation: the /query/batch worker pools
// stop claiming statements mid-sheet (exec.ForEachParallelStream observes
// it), while http.Server.Shutdown stops the listener and drains the
// handlers that are finishing up. The server carries the full set of
// connection-phase timeouts (resilience.ServerTimeouts), so a slow-loris
// client cannot pin goroutines through a stalled header, body or read.
func serveUntil(ctx context.Context, h http.Handler, ln net.Listener, out io.Writer, info string) error {
	fmt.Fprintf(out, "llmq: serving %s on http://%s\n", info, ln.Addr())
	srv := resilience.NewHTTPServer(h, resilience.ServerTimeouts{})
	srv.BaseContext = func(net.Listener) context.Context { return ctx }
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed before any shutdown was requested.
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "llmq: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// defaultModelConfig derives the fresh-directory training configuration from
// the relation: the paper's defaults with the vigilance formula the train
// subcommand uses at its default resolution a and mean radius.
func defaultModelConfig(rel *dataset.Relation) core.Config {
	span := meanSpan(rel.Bounds)
	cfg := core.DefaultConfig(rel.Dim())
	cfg.Vigilance = vigilance(0.25, span, span/10, rel.Dim())
	return cfg
}

// Package llmq is a Go reproduction of "Efficient Scalable Accurate
// Regression Queries in In-DBMS Analytics" (Anagnostopoulos & Triantafillou,
// ICDE 2017): a query-driven Local Linear Mapping (LLM) model that learns
// from executed mean-value and regression analytics queries and then answers
// unseen queries — and describes the local linear structure of the data —
// without accessing the underlying DBMS.
//
// The implementation lives under internal/: the core model in internal/core,
// the in-memory DBMS substrate in internal/engine + internal/index +
// internal/exec, the SQL-like front-end in internal/sqlfront, the REG/PLR
// baselines in internal/linalg and internal/plr, the workload and evaluation
// harness in internal/workload, and the paper's figures in
// internal/experiments. The runnable entry points are cmd/llmq,
// cmd/llmq-experiments and the programs under examples/.
//
// # Serving performance
//
// The model's read path is built for heavy concurrent traffic: all
// prototypes and LLM coefficients live in contiguous struct-of-arrays
// matrices scanned by allocation-free unrolled kernels (internal/vector),
// and both the winner search of Eq. (5) and the overlap set W(q) of
// Eq. (10) — hence whole predictions, not just one subroutine — run as
// exact sub-O(K) searches: a uniform grid answers nearest and radius
// queries in low-dimensional query spaces, a bulk-built implicit-layout
// k-d tree in wide ones, with prototype drift between index rebuilds
// covered by a verified slack budget. Reads are lock-free: training publishes
// immutable copy-on-write snapshots through an atomic pointer, every
// prediction answers from one consistent published version with zero
// locking, and Model.View pins a version across calls — the zero-downtime
// retrain/model-swap primitive. The store is chunked: versions share
// unchanged 256-row chunks by pointer and a write copies only the chunk
// it dirties, so publishing after one training pair costs O(touched rows)
// rather than O(K) — a live stream publishes every pair even at K=100k
// while concurrent reads stay at idle latency. The executor's
// MeanBatchCtx, the streaming NDJSON /query/batch endpoint and the llmq
// batch subcommand fan work out over one bounded worker pool,
// exec.ForEachParallelCtx; the llmq serve subcommand stands the HTTP
// service up directly, and its -batch-window flag arms a micro-batcher
// that coalesces concurrent /query requests into shared sheets with
// bit-identical duplicate collapse (docs/ARCHITECTURE.md, "The batching
// lifecycle").
//
// # Streaming training
//
// Production deployments serving non-stationary workloads cap the model
// with Config.MaxPrototypes: when a spawn exceeds the capacity, the
// lowest-scoring prototypes under a pluggable eviction policy (win-count
// decay or recency) are tombstoned in place — or merged into their nearest
// survivor — and their slots reused, so serving cost stays flat no matter
// how far past the capacity the training stream runs. Eviction is
// published like any other version: snapshots pinned before it keep
// serving their own rows exactly.
//
// docs/ARCHITECTURE.md is the guided tour of the read path, the write
// path and the eviction lifecycle, with file pointers and the exactness
// invariant each layer maintains. PERFORMANCE.md documents the layout,
// the exactness arguments and the measured speedups, and says how a number
// is made: end to end by the bench/ module, stage by stage by in-package
// benchmarks run on both commits back to back on one machine, and
// complexity by operation-count tests.
//
// The benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation at a reduced scale; run them with
//
//	go test -bench=. -benchmem
package llmq

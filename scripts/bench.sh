#!/usr/bin/env sh
# bench.sh — run the serving-hot-path benchmarks and record ns/op as JSON,
# or diff two recorded runs.
#
# Usage:
#   scripts/bench.sh [index]
#       Runs the benchmarks and writes BENCH_<index>.json (default
#       BENCH_1.json) in the repository root: one entry per benchmark with
#       its ns/op, plus a header naming the run environment — GOMAXPROCS,
#       the git commit and the Go version — so a compare can say what it is
#       comparing. Successive PRs bump the index to build a performance
#       trajectory.
#
#   scripts/bench.sh compare NEW.json OLD.json [--fail-over PCT [REGEX]]
#       Prints a per-benchmark delta table between two recorded runs:
#       benchmarks present in both files are joined by name and reported as
#       old → new with the speedup (old/new; > 1 means NEW is faster).
#       Benchmarks present in only one file are listed separately, so a
#       renamed or newly added benchmark is visible rather than silently
#       dropped. With --fail-over, the compare becomes a regression gate:
#       it exits non-zero when any benchmark whose name matches REGEX
#       (default: every joined benchmark) is more than PCT percent slower
#       in NEW than in OLD, OR is present in NEW but missing from OLD — a
#       gated benchmark with no baseline has dodged the gate (typically a
#       rename), which must fail loudly, not silently pass. CI runs this
#       against the latest committed BENCH_n.json with a generous threshold
#       — smoke benchtimes are noisy, so the gate only catches
#       order-of-magnitude regressions.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "compare" ]; then
    new="${2:?usage: scripts/bench.sh compare NEW.json OLD.json [--fail-over PCT [REGEX]]}"
    old="${3:?usage: scripts/bench.sh compare NEW.json OLD.json [--fail-over PCT [REGEX]]}"
    failover=""
    failre="."
    if [ "${4:-}" = "--fail-over" ]; then
        failover="${5:?--fail-over needs a percentage}"
        failre="${6:-.}"
    fi
    if [ "$new" = "$old" ]; then
        echo "compare: $new and $old are the same file"
        exit 0
    fi
    awk -v newfile="$new" -v oldfile="$old" -v failover="$failover" -v failre="$failre" '
    function trim(s) { gsub(/^[ \t]+|[ \t,]+$/, "", s); return s }
    # Each benchmark entry line looks like:
    #   {"name": "Benchmark.../sub", "ns_per_op": 123.4},
    /"name"/ {
        line = $0
        sub(/^.*"name":[ \t]*"/, "", line); name = line; sub(/".*$/, "", name)
        line = $0
        sub(/^.*"ns_per_op":[ \t]*/, "", line); ns = trim(line); sub(/[^0-9.eE+-].*$/, "", ns)
        if (FILENAME == oldfile) { oldns[name] = ns; oldseen[name] = 1 }
        else { newns[name] = ns; newseen[name] = 1; order[++n] = name }
    }
    END {
        printf "%-64s %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "speedup"
        nfail = 0
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (!(name in oldseen)) continue
            s = (newns[name] > 0) ? oldns[name] / newns[name] : 0
            printf "%-64s %12.5g %12.5g %8.2fx\n", name, oldns[name], newns[name], s
            if (failover != "" && name ~ failre && oldns[name] > 0) {
                pct = (newns[name] / oldns[name] - 1) * 100
                if (pct > failover + 0) fails[++nfail] = sprintf("%s regressed %.0f%% (limit %s%%)", name, pct, failover)
            }
        }
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (!(name in oldseen)) {
                printf "%-64s %12s %12.5g   (new)\n", name, "-", newns[name]
                # A gated benchmark with no baseline dodges the regression
                # check entirely (usually a rename): fail loudly instead of
                # letting the gate pass vacuously.
                if (failover != "" && name ~ failre) {
                    fails[++nfail] = sprintf("%s matches the gate but has no baseline in %s (renamed?)", name, oldfile)
                }
            }
        }
        for (name in oldseen) {
            if (!(name in newseen)) {
                printf "%-64s %12.5g %12s   (gone)\n", name, oldns[name], "-"
                # The other half of a rename: a gated baseline benchmark
                # that vanished from the current run is no longer being
                # measured at all — fail rather than gate vacuously.
                if (failover != "" && name ~ failre) {
                    fails[++nfail] = sprintf("%s matches the gate but vanished from %s (renamed?)", name, newfile)
                }
            }
        }
        if (nfail > 0) {
            printf "\nFAIL: %d benchmark(s) past the --fail-over %s%% gate:\n", nfail, failover
            for (i = 1; i <= nfail; i++) printf "  %s\n", fails[i]
            exit 1
        }
    }' "$old" "$new" || {
        # awk exits non-zero for the gate (and for I/O errors, e.g. a
        # truncated pipe); only claim a gate failure when one was requested.
        [ -n "$failover" ] && echo "compare: regression gate failed ($new vs $old)" >&2
        exit 1
    }
    exit 0
fi

out="BENCH_${1:-1}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkWinnerSearch' -benchtime "${WINNER_BENCHTIME:-2000x}" \
    ./internal/core/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkOverlapSet|BenchmarkPredictMeanScaling' \
    -benchtime "${OVERLAP_BENCHTIME:-500x}" ./internal/core/ >>"$tmp"
# BenchmarkReadDuringTraining also matches its Scaled (K=10k) companion.
go test -run '^$' -bench 'BenchmarkReadDuringTraining' \
    -benchtime "${READ_BENCHTIME:-2000x}" ./internal/core/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkObservePublish|BenchmarkTrainThroughput' \
    -benchtime "${PUBLISH_BENCHTIME:-2000x}" ./internal/core/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkEpochRebuild' \
    -benchtime "${REBUILD_BENCHTIME:-50x}" ./internal/core/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkStreamingEviction' \
    -benchtime "${EVICT_BENCHTIME:-500x}" ./internal/core/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkWALAppend' \
    -benchtime "${WAL_BENCHTIME:-2000x}" ./internal/core/ >>"$tmp"
# Each recovery op replays the whole multi-thousand-pair tail, so a handful
# of iterations is already milliseconds of measured work per op.
go test -run '^$' -bench 'BenchmarkRecovery' \
    -benchtime "${RECOVER_BENCHTIME:-20x}" ./internal/core/ >>"$tmp"
# One snapshot rotation through Durable at K=2000 (capture, tail fsync,
# atomic snapshot write, boundary hash): what the one /train ack in sixteen
# that crosses the SnapshotEvery boundary pays. snap_bytes and allocs/op ride
# along; the benchmark itself fails above 32 allocs/op.
go test -run '^$' -bench 'BenchmarkRotation' \
    -benchtime "${ROTATE_BENCHTIME:-200x}" ./internal/core/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkPredictBatch|BenchmarkServeThroughput' \
    -benchtime "${BATCH_BENCHTIME:-100x}" . >>"$tmp"
# Overload cost model of the admission layer: exact sheets at 1x/4x/10x the
# query capacity. At 4x/10x almost every sheet is refused, so those ns/op
# measure the refusal path (cheap by design) — the gate watches load=1x,
# where ns/op is the admitted service time.
go test -run '^$' -bench 'BenchmarkServeOverload' \
    -benchtime "${SERVE_BENCHTIME:-100x}" . >>"$tmp"
# Micro-batcher: closed-loop hot-statement coalescing (batch=off vs
# batch=on), plus the open-loop headline — arrivals at 2x the probed
# unbatched capacity, where batching must move shed/req toward 0 and keep
# p99 near window + one evaluation. The p50-ns/p99-ns/shed-per-req metrics
# these benchmarks report are recorded alongside ns/op (see the generator
# below), so BENCH_<n>.json carries the latency/shed numbers, not just
# throughput.
go test -run '^$' -bench 'BenchmarkServeBatching' \
    -benchtime "${BATCHING_BENCHTIME:-100x}" . >>"$tmp"
# Replication: ns/op of the lag benchmark is the per-pair ship+apply cost
# through the WAL long-poll (train on the primary → chunk over HTTP → mirror
# append → live apply on the follower); the bootstrap benchmark is the cold
# follower start (snapshot fetch + load + catch-up) at two primary sizes.
go test -run '^$' -bench 'BenchmarkReplicationLag' \
    -benchtime "${REPL_BENCHTIME:-2000x}" ./internal/replica/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkReplicationBootstrap' \
    -benchtime "${BOOTSTRAP_BENCHTIME:-20x}" ./internal/replica/ >>"$tmp"
# Shard scaling ladder: partitioned train throughput (pairs/s per batch op)
# and concurrent read QPS at 1/2/4/8 shards. On a multi-core runner the
# shards=4 rows should sit near 4x the shards=1 rows; the gate watches the
# shards=4 entries so a routing-layer regression can't hide in the ladder.
go test -run '^$' -bench 'BenchmarkSharded' \
    -benchtime "${SHARD_BENCHTIME:-50x}" ./internal/shard/ >>"$tmp"


awk -v gmp="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
    -v commit="$(git describe --always --dirty 2>/dev/null || echo unknown)" \
    -v gover="$(go env GOVERSION 2>/dev/null || echo unknown)" '
BEGIN {
    print "{"
    printf "  \"gomaxprocs\": %d,\n", gmp
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go\": \"%s\",\n", gover
    print "  \"benchmarks\": ["; n = 0
}
/^Benchmark/ {
    name = $1
    # The testing package appends "-GOMAXPROCS" to every benchmark name when
    # GOMAXPROCS != 1. Strip it so records from different machines (the 1-core
    # container vs a multi-core CI runner) join by name in compare — without
    # this the --fail-over gate would silently compare nothing.
    sub(/-[0-9]+$/, "", name)
    # Collect every "value unit" pair on the line: ns/op becomes the leading
    # ns_per_op field (compare joins on it), and any further metric a
    # benchmark reported via ReportMetric (p99-ns, shed/req, B/op, ...) is
    # recorded next to it with the unit sanitized into a JSON key. compare
    # keys off ns_per_op only, so extra fields never break the gate.
    ns = ""; extra = ""
    for (i = 2; i <= NF - 1; i++) {
        unit = $(i + 1)
        if ($i !~ /^[0-9.eE+-]+$/ || unit !~ /^[a-zA-Z]/) continue
        if (unit == "ns/op") { ns = $i; continue }
        key = unit
        gsub(/[^a-zA-Z0-9_]/, "_", key)
        extra = extra sprintf(", \"%s\": %s", key, $i)
    }
    if (ns != "") {
        if (n++) printf ",\n"
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s%s}", name, ns, extra
    }
}
END { print ""; print "  ]"; print "}" }
' "$tmp" >"$out"

echo "wrote $out:"
cat "$out"

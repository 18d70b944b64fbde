package replica_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"llmq/internal/replica"
	"llmq/internal/wal"
)

// benchOpts is fastOpts with the replica's logger silenced: go test merges
// the binary's stderr into stdout, and a log line landing between a
// benchmark's name and its result breaks the one-line result format that
// benchstat and other parsers read.
func benchOpts(dir, url string) replica.Options {
	opts := fastOpts(dir, url)
	opts.Logf = func(string, ...any) {}
	return opts
}

// BenchmarkReplicationLag measures the end-to-end per-pair replication cost:
// a pair enters the primary through the durable train path, ships over the
// WAL long-poll, lands in the follower's mirror, and is applied to its live
// model. ns/op is per pair with the shipping pipelined behind training, so
// it answers "how fast can a follower drain a burst" — the pairs/s metric is
// the same number inverted. The sub-benchmarks set the follower's sync
// policy (replica.Options.WAL), which governs its mirror writes: group is
// the serving default, none fsyncs only at rotation.
func BenchmarkReplicationLag(b *testing.B) {
	for _, mode := range []wal.SyncMode{wal.SyncGroup, wal.SyncNone} {
		b.Run("sync="+mode.String(), func(b *testing.B) {
			const warmup = 64
			p := newPrimary(b, b.TempDir(), 4096)
			pairs := genPairs(17, warmup+b.N)
			if _, err := p.d.TrainBatch(pairs[:warmup]); err != nil {
				b.Fatal(err)
			}
			opts := benchOpts(b.TempDir(), p.ts.URL)
			opts.WAL.Mode = mode
			rep, _ := startReplica(b, opts)
			waitSteps(b, rep, warmup)

			b.ResetTimer()
			if _, err := p.d.TrainBatch(pairs[warmup:]); err != nil {
				b.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Minute)
			for rep.Status().Steps < warmup+b.N {
				if time.Now().After(deadline) {
					b.Fatalf("follower stuck at %d steps, want %d", rep.Status().Steps, warmup+b.N)
				}
				time.Sleep(time.Millisecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkReplicationBootstrap measures cold follower start against a
// primary of a given size: snapshot fetch, local load, and WAL catch-up to
// the primary's step count. ns/op is the full bootstrap, the time a fresh
// replica needs before it can serve; it grows with the snapshot (prototype
// count is capacity-bounded, so in practice with the WAL tail length).
func BenchmarkReplicationBootstrap(b *testing.B) {
	for _, steps := range []int{1_000, 8_000} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			p := newPrimary(b, b.TempDir(), 4096)
			if _, err := p.d.TrainBatch(genPairs(29, steps)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := replica.Open(benchOpts(b.TempDir(), p.ts.URL))
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() { defer close(done); _ = rep.Run(ctx) }()
				waitSteps(b, rep, steps)
				cancel()
				<-done
				if err := rep.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package crashtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"llmq/internal/core"
	"llmq/internal/wal"
)

// The harness trains with a configuration that cannot converge (a Γ
// threshold no float drift satisfies and an unreachable minimum-steps gate),
// so Steps() of any recovered model equals exactly the number of durable
// pairs — the quantity the prefix-consistency check is built on. The bounded
// capacity with a short half-life forces evictions (and, in the merge
// variant, merges) to happen many times mid-stream, which is where slot
// renumbering after a recovery could diverge from the uncrashed run if the
// eviction order were not stamp-keyed.
func trainConfig(merge bool) core.Config {
	return core.Config{
		Dim:                     3,
		Vigilance:               0.5,
		Gamma:                   1e-12,
		MinGammaSteps:           1 << 30,
		InitInterceptWithAnswer: true,
		RateByPrototype:         true,
		MaxPrototypes:           24,
		Eviction:                core.Eviction{HalfLife: 64},
		MergeOnEvict:            merge,
	}
}

// genPairs generates the deterministic training stream both the child
// trainer and the parent's reference runs consume; determinism is what lets
// two processes agree on "the first M pairs".
func genPairs(seed int64, n int) []core.TrainingPair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]core.TrainingPair, n)
	for i := range pairs {
		c := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		q, err := core.NewQuery(c, 0.3*rng.Float64())
		if err != nil {
			panic(err)
		}
		pairs[i] = core.TrainingPair{
			Query:  q,
			Answer: c[0] + 2*c[1] - c[2] + 0.1*rng.NormFloat64(),
		}
	}
	return pairs
}

// stateHash wraps core.Model.StateHash — the canonical digest of the full
// training state (RLS solver matrices included), independent of slot order
// — for the bit-identity assertions. Recovery keeps the slot order too, but
// the hash compares state without depending on it.
func stateHash(t *testing.T, m *core.Model) string {
	t.Helper()
	h, err := m.StateHash()
	if err != nil {
		t.Fatalf("state hash: %v", err)
	}
	return h
}

// TestCrashChild is the child trainer the harness SIGKILLs; it only runs
// when the harness re-executes the test binary with the environment set, and
// skips otherwise. It recovers whatever state the previous incarnation left,
// continues the deterministic stream from the recovered step count through
// Durable.TrainBatch — the path /train runs — in batches of seeded random
// size 1..64, paced per pair so kills land mid-stream (a kill can land
// inside a batch, its overlapped fsync included), and drops a completion
// marker once the whole stream has been consumed and closed cleanly.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("LLMQ_CRASHTEST_DIR")
	if dir == "" {
		t.Skip("crashtest child entry point; driven by TestCrashRecovery")
	}
	n, _ := strconv.Atoi(os.Getenv("LLMQ_CRASHTEST_N"))
	seed, _ := strconv.ParseInt(os.Getenv("LLMQ_CRASHTEST_SEED"), 10, 64)
	snapEvery, _ := strconv.Atoi(os.Getenv("LLMQ_CRASHTEST_SNAP_EVERY"))
	paceUS, _ := strconv.Atoi(os.Getenv("LLMQ_CRASHTEST_PACE_US"))
	merge := os.Getenv("LLMQ_CRASHTEST_MERGE") == "1"
	done := os.Getenv("LLMQ_CRASHTEST_DONE")

	d, err := core.Recover(dir, trainConfig(merge), core.DurableOptions{
		SnapshotEvery: snapEvery,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("child recover: %v", err)
	}
	pairs := genPairs(seed, n)
	start := d.Model().Steps()
	sizes := rand.New(rand.NewSource(seed + int64(start)))
	for i := start; i < len(pairs); {
		b := min(len(pairs)-i, 1+sizes.Intn(64))
		if _, err := d.TrainBatch(pairs[i : i+b]); err != nil {
			t.Fatalf("child train: %v", err)
		}
		i += b
		time.Sleep(time.Duration(b*paceUS) * time.Microsecond)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("child close: %v", err)
	}
	if err := os.WriteFile(done, []byte("ok"), 0o644); err != nil {
		t.Fatalf("child done marker: %v", err)
	}
}

// chopNewestSegment truncates up to chop bytes off the newest WAL segment —
// the on-disk state a power loss leaves when the tail was written but not
// yet synced (a plain SIGKILL cannot produce it: the page cache survives the
// process). Recovery must truncate to the last intact record and carry on.
func chopNewestSegment(t *testing.T, dir string, chop int64) {
	t.Helper()
	man, err := wal.List(dir)
	if err != nil || len(man.Segments) == 0 {
		return
	}
	path := wal.SegmentPath(dir, man.Segments[len(man.Segments)-1])
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		return
	}
	size := fi.Size() - chop
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatalf("chop segment: %v", err)
	}
}

// verifyPrefix recovers the directory and requires the result to be
// bit-identical to a fresh model trained on exactly the recovered number of
// pairs — the durability contract: a crash may lose an unsynced suffix, but
// what survives is always a clean prefix of the stream, never a mangled
// in-between state.
func verifyPrefix(t *testing.T, dir string, pairs []core.TrainingPair, merge bool, snapEvery int) int {
	t.Helper()
	d, err := core.Recover(dir, trainConfig(merge), core.DurableOptions{
		SnapshotEvery: snapEvery,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("verify recover: %v", err)
	}
	m := d.Model().Steps()
	if m > len(pairs) {
		t.Fatalf("recovered %d steps from a %d-pair stream", m, len(pairs))
	}
	got := stateHash(t, d.Model())
	if err := d.Close(); err != nil {
		t.Fatalf("verify close: %v", err)
	}
	ref, err := core.NewModel(trainConfig(merge))
	if err != nil {
		t.Fatalf("reference model: %v", err)
	}
	if _, err := ref.TrainBatch(pairs[:m]); err != nil {
		t.Fatalf("reference train: %v", err)
	}
	if want := stateHash(t, ref); got != want {
		t.Fatalf("recovered model diverges from the clean run after %d pairs: hash %s, want %s", m, got, want)
	}
	return m
}

// TestCrashRecovery is the fault-injection harness: it repeatedly runs the
// child trainer against one data directory, SIGKILLs it at a random point
// (sometimes also tearing the unsynced tail of the newest segment), and
// after every kill proves the recovered model is bit-identical to a clean
// run over the durable prefix. The loop ends when a child survives to
// consume the whole stream; the final recovery must then hold all of it.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness spawns child processes; skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		merge bool
	}{
		{"evict", false},
		{"merge", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				n         = 3000
				seed      = 42
				snapEvery = 73
				paceUS    = 1400
				maxRounds = 80
			)
			base := t.TempDir()
			dataDir := filepath.Join(base, "data")
			doneMarker := filepath.Join(base, "done")
			pairs := genPairs(seed, n)
			rng := rand.New(rand.NewSource(7))
			killed := 0
			rounds := 0
			for ; rounds < maxRounds; rounds++ {
				if _, err := os.Stat(doneMarker); err == nil {
					break
				}
				var out bytes.Buffer
				cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$")
				cmd.Stdout = &out
				cmd.Stderr = &out
				cmd.Env = append(os.Environ(),
					"LLMQ_CRASHTEST_DIR="+dataDir,
					"LLMQ_CRASHTEST_DONE="+doneMarker,
					fmt.Sprintf("LLMQ_CRASHTEST_N=%d", n),
					fmt.Sprintf("LLMQ_CRASHTEST_SEED=%d", seed),
					fmt.Sprintf("LLMQ_CRASHTEST_SNAP_EVERY=%d", snapEvery),
					fmt.Sprintf("LLMQ_CRASHTEST_PACE_US=%d", paceUS),
					fmt.Sprintf("LLMQ_CRASHTEST_MERGE=%d", boolToInt(tc.merge)),
				)
				if err := cmd.Start(); err != nil {
					t.Fatalf("start child: %v", err)
				}
				waitCh := make(chan error, 1)
				go func() { waitCh <- cmd.Wait() }()
				delay := 20*time.Millisecond + time.Duration(rng.Int63n(int64(130*time.Millisecond)))
				select {
				case err := <-waitCh:
					if err != nil {
						t.Fatalf("child failed on its own: %v\n%s", err, out.String())
					}
				case <-time.After(delay):
					_ = cmd.Process.Kill()
					<-waitCh
					killed++
				}
				if rng.Intn(2) == 0 {
					chopNewestSegment(t, dataDir, 1+rng.Int63n(80))
				}
				m := verifyPrefix(t, dataDir, pairs, tc.merge, snapEvery)
				t.Logf("round %d: %d/%d pairs durable", rounds, m, n)
			}
			if _, err := os.Stat(doneMarker); err != nil {
				t.Fatalf("child never completed the stream in %d rounds", rounds)
			}
			t.Logf("stream complete after %d rounds, %d kills", rounds, killed)
			if killed == 0 {
				t.Logf("warning: no child was killed mid-stream; kills=%d rounds=%d", killed, rounds)
			}
			if m := verifyPrefix(t, dataDir, pairs, tc.merge, snapEvery); m != n {
				t.Fatalf("clean completion recovered %d of %d pairs", m, n)
			}
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

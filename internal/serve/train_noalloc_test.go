//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates; the -race run drives the same handler through
// every other /train test.

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"llmq/internal/core"
	"llmq/internal/wal"
)

// TestTrainHandlerAllocsIndependentOfPairs asserts a canonical /train
// request costs a warm durable server the same number of allocations for 64
// pairs as for 256: the body, the pairs and the centres land in one pooled
// trainBuf, the batch is logged from the Durable's reused record and frame
// buffers, and what remains is per request (the recorder and request of this
// test, the Γ trace, one publication, the response). The model is one
// prototype wide — the vigilance covers the unit square — so every pair is a
// winner update, which allocates nothing once the prototype has its solver
// state; SyncAlways gives both sizes the same one fsync per call.
func TestTrainHandlerAllocsIndependentOfPairs(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.Vigilance = 10
	cfg.Gamma = 1e-300
	d, err := core.Recover(t.TempDir(), cfg, core.DurableOptions{
		WAL: wal.Options{Mode: wal.SyncAlways}, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := NewDurable(newShardedExecutor(t), d)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(pairs int) float64 {
		body := benchTrainBody(pairs, int64(pairs))
		post := func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/train", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		post() // warm: the pooled buffers and the log's frame buffer reach this size
		return testing.AllocsPerRun(50, post)
	}
	allocs(256) // the larger size first, so no buffer grows during either measurement
	small, large := allocs(64), allocs(256)
	if small != large {
		t.Fatalf("a /train request allocates %.0f objects for 64 pairs and %.0f for 256; want the same", small, large)
	}
	t.Logf("%.0f allocations per /train request at either size", small)
}

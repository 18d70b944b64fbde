//go:build !race

// The race detector allocates for its own bookkeeping on goroutine and
// channel operations, so the count below holds only without it; the -race
// run exercises the same parse through the other tests.

package dataset

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestParseCSVAllocs checks that a parse allocates per block, not per row:
// 200 000 rows (≈ 180 blocks) stay under 1 000 allocations, where an
// allocation per row (encoding/csv's record string) makes 200 000.
func TestParseCSVAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs, us := make([][]float64, 200000), make([]float64, 200000)
	for i := range xs {
		xs[i], us[i] = []float64{rng.Float64(), rng.Float64()}, rng.NormFloat64()
	}
	ds, err := FromPoints("allocs", xs, us)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ParseCSV("allocs", bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d rows", allocs, len(us))
	if allocs > 1000 {
		t.Errorf("%.0f allocations for %d rows, want ≤ 1 000", allocs, len(us))
	}
}

package index

import (
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/vector"
)

// buildMismatchedGrid builds a Grid whose cell size is pathologically
// mismatched to the point spacing: points thousands of empty cells apart, so
// the ring walk burns its budget long before reaching a neighbour. This is
// the regime NearestStale's exact-scan fallback exists for.
func buildMismatchedGrid(t *testing.T, rng *rand.Rand, n int) (*Grid, []float64) {
	t.Helper()
	const dim = 2
	flat := make([]float64, 0, n*dim)
	for i := 0; i < n; i++ {
		// Points scattered across ~1e5 cells per axis.
		flat = append(flat, 1e5*rng.Float64(), 1e5*rng.Float64())
	}
	g, err := NewGridFlat(flat, dim, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.cells) == 0 {
		t.Fatal("expected a grid with a directory")
	}
	return g, flat
}

// TestDynamicGridNearestBudgetFallback forces the ring walk's budget (2n+64
// cells, versus ~1e5 empty rings between neighbours) and asserts the
// exact-scan fallback still returns the linear-scan answer — both on the
// stored points and through the stale/live verification path.
func TestDynamicGridNearestBudgetFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 12
	g, flat := buildMismatchedGrid(t, rng, n)
	live := vector.ChunkedFromFlat(flat, 2)
	for trial := 0; trial < 100; trial++ {
		q := []float64{1e5 * rng.Float64(), 1e5 * rng.Float64()}
		want, wantSq := bruteNearest(flat, 2, q)
		got, gotSq := nearest(g, q)
		if got != want || gotSq != wantSq {
			t.Fatalf("trial %d: nearest (%d, %v), linear scan (%d, %v)", trial, got, gotSq, want, wantSq)
		}
		got, gotSq = g.NearestStale(q, 0.5, live, -1, 0)
		if got != want || gotSq != wantSq {
			t.Fatalf("trial %d: NearestStale (%d, %v), linear scan (%d, %v)", trial, got, gotSq, want, wantSq)
		}
	}
}

// TestDynamicGridRangeBudgetFallback forces Scan's row scan (a query ball
// whose box covers more cells than there are points) and asserts it matches
// the linear scan.
func TestDynamicGridRangeBudgetFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 12
	g, flat := buildMismatchedGrid(t, rng, n)
	lin, err := NewLinear(slices.Collect(slices.Chunk(flat, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := []float64{1e5 * rng.Float64(), 1e5 * rng.Float64()}
		r := 5e4 * rng.Float64() // covers up to ~1e9 cells, versus 12 points
		want, err := lin.Radius(q, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := l2IDs(t, g, q, r); !sameIDs(got, want) {
			t.Fatalf("trial %d: Scan %v, linear scan %v", trial, sortedCopy(got), want)
		}
	}
}

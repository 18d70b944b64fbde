package index

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"llmq/internal/vector"
)

// The tests of Grid as the prototype store's read epoch: NearestStale (the
// winner search of Eq. 5) and Scan under L2 (the candidate source of the
// overlap set, Eq. 10). They carry the names of the incremental grid the
// epoch used before it was built on Grid.

func randPts(rng *rand.Rand, n, dim int, scale float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = scale * (rng.Float64()*2 - 1)
		}
		pts[i] = p
	}
	return pts
}

// nearest is NearestStale on a grid whose points are the live rows.
func nearest(g *Grid, q []float64) (int, float64) {
	return g.NearestStale(q, 0, vector.Chunked{}, -1, 0)
}

func TestDynamicGridNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, 2, 17, 300} {
			pts := randPts(rng, n, dim, 2)
			g, err := NewGrid(pts, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			lin, err := NewLinear(pts)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 50; trial++ {
				q := randPts(rng, 1, dim, 2.5)[0]
				gotID, gotSq := nearest(g, q)
				wantID, wantSq := lin.Nearest(q)
				if gotID != wantID || gotSq != wantSq {
					t.Fatalf("dim=%d n=%d: grid nearest %d (sq %v), linear %d (sq %v)",
						dim, n, gotID, gotSq, wantID, wantSq)
				}
			}
		}
	}
}

func TestDynamicGridEdgeCases(t *testing.T) {
	rows := []float64{0.1, 0.2}
	if _, err := NewGridFlat(rows, 0, 1); !errors.Is(err, ErrDimension) {
		t.Errorf("dim 0: err = %v", err)
	}
	if _, err := NewGridFlat(rows, 2, 0); err == nil {
		t.Error("cell size 0 should fail")
	}
	if _, err := NewGridFlat(rows, 2, math.NaN()); err == nil {
		t.Error("NaN cell size should fail")
	}
	if _, err := NewGridFlat(nil, 2, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("no points: err = %v", err)
	}
	if _, err := NewGridFlatIDs(rows, 2, 0.5, []int32{3, 4}); !errors.Is(err, ErrDimension) {
		t.Errorf("two ids for one point: err = %v", err)
	}
	g, err := NewGridFlatIDs(rows, 2, 0.5, []int32{7})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 || g.Dim() != 2 || !slices.Equal(g.Points(), rows) || !slices.Equal(g.IDs(), []int32{7}) {
		t.Errorf("Len/Dim/Points/IDs = %d/%d/%v/%v", g.Len(), g.Dim(), g.Points(), g.IDs())
	}
	if id, sq := nearest(g, []float64{0.1, 0.2}); id != 7 || sq != 0 {
		t.Errorf("nearest = (%d, %v), want (7, 0)", id, sq)
	}
	// A seed nearer than every point survives, whatever its id.
	if id, sq := g.NearestStale([]float64{0.1, 0.2}, 0, vector.Chunked{}, 99, -1); id != 99 || sq != -1 {
		t.Errorf("seed lost: (%d, %v)", id, sq)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-dim query should panic")
		}
	}()
	nearest(g, []float64{1})
}

// TestDynamicGridPathologicalCellSize covers the budgeted fallback: with
// cells orders of magnitude smaller than the point spacing, the ring walk
// would have to cross thousands of empty rings, and a query outside the
// points starts farther out than the budget, so NearestStale must give up
// on the grid within its budget and still answer exactly.
func TestDynamicGridPathologicalCellSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim, n = 3, 200
	pts := randPts(rng, n, dim, 1)
	g, err := NewGrid(pts, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.cells) == 0 {
		t.Fatal("expected a grid with a directory")
	}
	lin, err := NewLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := randPts(rng, 1, dim, 1.5)[0]
		gotID, gotSq := nearest(g, q)
		wantID, wantSq := lin.Nearest(q)
		if gotID != wantID || gotSq != wantSq {
			t.Fatalf("fallback: grid nearest %d (sq %v), linear %d (sq %v)", gotID, gotSq, wantID, wantSq)
		}
	}
}

// TestGridNearestCoarseCellNumbers covers grids of more than 2⁵³ cells along
// a dimension, where a cell number's float is coarser than one cell and a
// point's ring can be a cell or two off its true offset. The walk must not
// stop on a distance bound computed from ring numbers: points a few ulps
// around 10⁷ beside one at −10⁷, at cell sizes near 10⁻⁹.
func TestGridNearestCoarseCellNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const base = 1e7
	ulp := math.Nextafter(base, math.Inf(1)) - base
	walked := 0
	for trial := 0; trial < 20000; trial++ {
		pts := [][]float64{{-base}}
		for i := 0; i < 6; i++ {
			pts = append(pts, []float64{base + float64(rng.Intn(100)-50)*ulp})
		}
		q := []float64{base + float64(rng.Intn(100)-50)*ulp}
		g, err := NewGrid(pts, 2e-10+3e-9*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if len(g.cells) == 0 {
			continue // the extent did not survive its float conversion
		}
		walked++
		lin, _ := NewLinear(pts)
		gotID, gotSq := nearest(g, q)
		if wantID, wantSq := lin.Nearest(q); gotID != wantID || gotSq != wantSq {
			t.Fatalf("trial %d: grid nearest %d (sq %v), linear %d (sq %v); points %v, query %v",
				trial, gotID, gotSq, wantID, wantSq, pts, q)
		}
	}
	if walked < 1000 {
		t.Fatalf("only %d grids kept a directory", walked)
	}
}

// TestDynamicGridTieBreaksLowID pins the tie rule on every path: points
// equidistant from the query in different cells, in one cell, against a
// seed, and through both exact scans.
func TestDynamicGridTieBreaksLowID(t *testing.T) {
	pts := [][]float64{{3, 0}, {1, 0}, {-1, 0}, {0, 1}, {1, 0}}
	q := []float64{0, 0}
	for _, cell := range []float64{1, 100, 1e-300} { // rings, one cell, scan-only
		g, err := NewGrid(pts, cell)
		if err != nil {
			t.Fatal(err)
		}
		if id, sq := nearest(g, q); id != 1 || sq != 1 {
			t.Errorf("cell %v: tie gave (%d, %v), want (1, 1)", cell, id, sq)
		}
		live := vector.ChunkedFromFlat(slices.Concat(pts...), 2)
		if id, _ := g.NearestStale(q, 0.5, live, -1, 0); id != 1 {
			t.Errorf("cell %v, live rows: tie gave %d, want 1", cell, id)
		}
		// A tying seed loses to a lower id and beats a higher one.
		if id, _ := g.NearestStale(q, 0, vector.Chunked{}, 9, 1); id != 1 {
			t.Errorf("cell %v: seed 9 tying id 1 won", cell)
		}
		if id, _ := g.NearestStale(q, 0, vector.Chunked{}, 0, 1); id != 0 {
			t.Errorf("cell %v: seed 0 tying id 1 lost, got %d", cell, id)
		}
	}
}

// l2IDs returns the ids Scan reports under L2, in its visit order.
func l2IDs(t *testing.T, g *Grid, q []float64, r float64) []int {
	t.Helper()
	pos, err := g.Scan(context.Background(), nil, q, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(pos))
	for k, p := range pos {
		ids[k] = int(g.IDs()[p])
	}
	return ids
}

// TestDynamicGridRangeMatchesLinear checks the epoch's radius query — Scan
// under L2 — on random point sets: exactly Linear's ids, a point on the
// ball's boundary included.
func TestDynamicGridRangeMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, 40, 500} {
			pts := randPts(rng, n, dim, 2)
			g, err := NewGrid(pts, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			lin, err := NewLinear(pts)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 60; trial++ {
				q := randPts(rng, 1, dim, 2.5)[0]
				r := rng.Float64() * 2.5 // from point-free to most-of-the-set
				if trial%10 == 0 {
					r = math.Sqrt(vector.SqDistance(pts[rng.Intn(n)], q)) // a point on the boundary
				}
				want, err := lin.Radius(q, r, 2)
				if err != nil {
					t.Fatal(err)
				}
				if got := l2IDs(t, g, q, r); !sameIDs(got, want) {
					t.Fatalf("dim=%d n=%d r=%v: Scan %v, linear %v", dim, n, r, sortedCopy(got), want)
				}
			}
		}
	}
}

// TestDynamicGridRangeEdgeCases exercises negative and NaN radii, zero
// radius on an exact hit, and the row scan when the box dwarfs the point
// set.
func TestDynamicGridRangeEdgeCases(t *testing.T) {
	g, err := NewGrid([][]float64{{0.25, 0.25}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2IDs(t, g, []float64{0.25, 0.25}, 0); !slices.Equal(got, []int{0}) {
		t.Fatalf("zero-radius exact hit: %v", got)
	}
	for _, r := range []float64{-1, math.NaN()} {
		if pos, err := g.Scan(context.Background(), nil, []float64{0, 0}, r, 2); !errors.Is(err, ErrRadius) || len(pos) != 0 {
			t.Fatalf("radius %v: %v, err %v", r, pos, err)
		}
	}
	// A huge radius takes the row scan; the single point is found.
	if got := l2IDs(t, g, []float64{0, 0}, 1e9); !slices.Equal(got, []int{0}) {
		t.Fatalf("huge radius: %v", got)
	}
}

// TestDynamicGridNearestStale verifies the drift-slack search: the grid
// holds stale positions, every live point has moved at most slack from its
// stored row, and NearestStale must still return the exact argmin over the
// live rows — including when the answer arrives via the seed.
func TestDynamicGridNearestStale(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, 25, 400} {
			stale := randPts(rng, n, dim, 2)
			g, err := NewGrid(stale, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			for _, slack := range []float64{0, 0.05, 0.4} {
				// Perturb each live row by at most slack from its stale row.
				live := make([]float64, n*dim)
				for i, p := range stale {
					move := slack * rng.Float64() / math.Sqrt(float64(dim))
					for j := range p {
						live[i*dim+j] = p[j] + move*(rng.Float64()*2-1)
					}
				}
				view := vector.ChunkedFromFlat(live, dim)
				for trial := 0; trial < 60; trial++ {
					q := randPts(rng, 1, dim, 2.5)[0]
					gotID, gotSq := g.NearestStale(q, slack, view, -1, 0)
					wantID, wantSq := bruteNearest(live, dim, q)
					if gotID != wantID || gotSq != wantSq {
						t.Fatalf("dim=%d n=%d slack=%v: NearestStale %d (sq %v), linear %d (sq %v)",
							dim, n, slack, gotID, gotSq, wantID, wantSq)
					}
					// A better-than-everything seed must win; seed ids may
					// point past the grid's rows (an un-indexed tail).
					if seedID, seedSq := g.NearestStale(q, slack, view, n+3, wantSq/2); seedID != n+3 || seedSq != wantSq/2 {
						t.Fatalf("dim=%d n=%d slack=%v: seed lost: got (%d, %v)", dim, n, slack, seedID, seedSq)
					}
				}
			}
		}
	}
}

// TestGridNearestVisitsOnlyItsCutoff guards the epoch's winner search (Eq. 5)
// against walking more of the grid than its cutoff reaches. On a
// prototype-like point set — 1 500 points at least ρ apart in a width-3
// box, cells of 2ρ, every live row moved by up to the slack ρ/4 — a search
// from within ρ of a point must return the brute-force winner and measure
// few stored points on average. The bound, 27, sits halfway between the
// means measured when the guard was written: 38.7 with each ring walked
// whole, 15.2 with each ring clipped to the cutoff's cell box.
func TestGridNearestVisitsOnlyItsCutoff(t *testing.T) {
	const n, rho, queries, maxMean = 1500, 0.03, 2000, 27.0
	rng := rand.New(rand.NewSource(29))
	var stored []float64
	for len(stored) < 3*n {
		p := []float64{rng.Float64(), rng.Float64(), 0.05 + 0.1*rng.Float64()}
		spaced := true
		for i := 0; i < len(stored) && spaced; i += 3 {
			spaced = vector.SqDistanceFlat(stored[i:i+3], p) >= rho*rho
		}
		if spaced {
			stored = append(stored, p...)
		}
	}
	g, err := NewGridFlat(stored, 3, 2*rho)
	if err != nil {
		t.Fatal(err)
	}
	// offset returns a vector of length up to r in a uniform direction.
	offset := func(r float64) []float64 {
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		scale := r * rng.Float64() / math.Sqrt(vector.SqDistanceFlat(v, []float64{0, 0, 0}))
		for j := range v {
			v[j] *= scale
		}
		return v
	}
	live := slices.Clone(stored)
	for i := 0; i < len(live); i += 3 {
		for j, v := range offset(0.99 * rho / 4) {
			live[i+j] += v
		}
	}
	view := vector.ChunkedFromFlat(live, 3)
	tested := 0
	for range queries {
		q := slices.Clone(live[3*rng.Intn(n):][:3])
		for j, v := range offset(rho) {
			q[j] += v
		}
		s := newNearestSearch(q, rho/4, view, -1, 0)
		got, gotSq := g.nearest(&s)
		if want, wantSq := bruteNearest(live, 3, q); got != want || gotSq != wantSq {
			t.Fatalf("q %v: NearestStale (%d, %v), brute force (%d, %v)", q, got, gotSq, want, wantSq)
		}
		tested += s.tested
	}
	mean := float64(tested) / queries
	t.Logf("%.1f stored points measured per search (bound %.0f)", mean, maxMean)
	if mean > maxMean {
		t.Errorf("a winner search measures %.1f stored points on average, want at most %.0f", mean, maxMean)
	}
}

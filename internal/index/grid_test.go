package index

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"llmq/internal/vector"
)

// referenceRadius is Grid's contract written the slow, obvious way: the ids
// Linear selects, in row order when the query's unclamped box covers more
// cells than there are points, otherwise sorted by (odometer rank of the
// point's cell — dimension 0 turning fastest — then id). It assumes a grid
// that keeps a directory (finite points, cell numbers within 63 bits).
func referenceRadius(t testing.TB, pts [][]float64, cell float64, center []float64, radius, p float64) []int {
	t.Helper()
	lin, err := NewLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := lin.Radius(center, radius, p)
	if err != nil {
		t.Fatal(err)
	}
	dim := len(center)
	origin := slices.Clone(pts[0])
	for _, pt := range pts {
		for j, v := range pt {
			origin[j] = math.Min(origin[j], v)
		}
	}
	boxCells := 1.0
	for j, c := range center {
		boxCells *= math.Floor((c+radius-origin[j])/cell) - math.Floor((c-radius-origin[j])/cell) + 1
	}
	if !(boxCells <= float64(len(pts))) {
		return ids
	}
	coord := func(id, j int) int { return int(math.Floor((pts[id][j] - origin[j]) / cell)) }
	sort.SliceStable(ids, func(a, b int) bool {
		for j := dim - 1; j >= 0; j-- {
			if ca, cb := coord(ids[a], j), coord(ids[b], j); ca != cb {
				return ca < cb
			}
		}
		return false
	})
	return ids
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkGrid compares one query's Radius and Scan against the reference.
func checkGrid(t testing.TB, g *Grid, pts [][]float64, cell float64, center []float64, radius, p float64) {
	t.Helper()
	var want []int
	if len(g.cells) > 0 {
		want = referenceRadius(t, pts, cell, center, radius, p)
	} else {
		// A scan-only grid is Linear.
		lin, _ := NewLinear(pts)
		want, _ = lin.Radius(center, radius, p)
	}
	got, err := g.Radius(center, radius, p)
	if err != nil {
		t.Fatalf("Radius(%v, %v, %v): %v", center, radius, p, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cell=%v center=%v radius=%v p=%v:\n got %v\nwant %v", cell, center, radius, p, got, want)
	}
	// Scan reports the same points as positions, after whatever dst held.
	pos, err := g.Scan(context.Background(), []int32{-7}, center, radius, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != len(want)+1 || pos[0] != -7 {
		t.Fatalf("Scan appended %d positions to a 1-element dst, want %d", len(pos)-1, len(want))
	}
	for k, at := range pos[1:] {
		if int(g.ids[at]) != want[k] || g.rank[want[k]] != at {
			t.Fatalf("position %d is row %d, want %d", at, g.ids[at], want[k])
		}
		if !slices.EqualFunc(g.Points()[int(at)*g.dim:(int(at)+1)*g.dim], pts[want[k]], sameBits) {
			t.Fatalf("Points() at position %d is not row %d", at, want[k])
		}
	}
}

// TestGridVisitOrder is the property test of the clustered grid: over
// dimensions, norms, radii from zero to enormous, and point sets chosen to
// sit on every awkward spot of a uniform grid, Radius returns Linear's id set
// in exactly the contract's order.
func TestGridVisitOrder(t *testing.T) {
	inf := math.Inf(1)
	type shape struct {
		name string
		cell float64
		gen  func(rng *rand.Rand, dim int) [][]float64
	}
	uniform := func(n int, lo, hi float64) func(*rand.Rand, int) [][]float64 {
		return func(rng *rand.Rand, dim int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, dim)
				for j := range pts[i] {
					pts[i][j] = lo + (hi-lo)*rng.Float64()
				}
			}
			return pts
		}
	}
	lattice := func(n int, step float64, levels int) func(*rand.Rand, int) [][]float64 {
		return func(rng *rand.Rand, dim int) [][]float64 {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, dim)
				for j := range pts[i] {
					pts[i][j] = step * float64(rng.Intn(levels)-levels/2)
				}
			}
			return pts
		}
	}
	shapes := []shape{
		{"uniform", 0.25, uniform(300, -1, 1)},
		{"negative", 0.7, uniform(200, -50, -40)},
		{"boundaries", 0.25, lattice(200, 0.25, 9)},  // every point on a cell corner
		{"duplicates", 0.5, lattice(150, 1, 3)},      // a few distinct points, many copies
		{"single-cell", 100, uniform(120, -1, 1)},    // the whole relation in one cell
		{"point-per-cell", 0.02, uniform(60, -1, 1)}, // more cells than points
	}
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(1000*dim + len(sh.name))))
			pts := sh.gen(rng, dim)
			g, err := NewGrid(pts, sh.cell)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.cells) == 0 {
				t.Fatalf("dim=%d %s: grid kept no directory", dim, sh.name)
			}
			span := 0.0
			for _, pt := range pts {
				span = math.Max(span, math.Abs(pt[0]-pts[0][0]))
			}
			radii := []float64{0, 1e-9, sh.cell, 1.5 * sh.cell, 0.3 * span, 10 * span, 1e6 * span, 1e18, 1e300, inf}
			for _, p := range []float64{1, 2, 3, inf} {
				for _, radius := range radii {
					for trial := 0; trial < 4; trial++ {
						center := slices.Clone(pts[rng.Intn(len(pts))])
						if trial > 0 { // trial 0 queries an indexed point itself
							for j := range center {
								center[j] += (rng.Float64() - 0.5) * span * float64(trial) / 2
							}
						}
						checkGrid(t, g, pts, sh.cell, center, radius, p)
					}
				}
			}
		}
	}
}

// TestGridHugeRadius is the regression test of the overflowing query box: a
// radius (or a centre) of 10¹⁸ cells and beyond used to wrap the box's
// integer coordinates, and the grid answered "no points" where Linear
// returns every row.
func TestGridHugeRadius(t *testing.T) {
	pts := randomPoints(500, 2, 21)
	g, err := NewGrid(pts, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	inf := math.Inf(1)
	for _, q := range []struct {
		center []float64
		radius float64
	}{
		{[]float64{0.5, 0.5}, 1e17},
		{[]float64{0.5, 0.5}, 1e18},
		{[]float64{0.5, 0.5}, 1e300},
		{[]float64{0.5, 0.5}, inf},
		{[]float64{1e19, -1e19}, 3e19}, // far outside the data, ball still covers it
		{[]float64{1e19, 0}, inf},
	} {
		for _, p := range []float64{1, 2, 3, inf} {
			got, err := g.Radius(q.center, q.radius, p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, all) {
				t.Errorf("center=%v radius=%v p=%v: %d of %d points, want all in row order", q.center, q.radius, p, len(got), len(pts))
			}
		}
	}
	// A far centre with a radius that does not reach the data selects nothing.
	if got, err := g.Radius([]float64{1e19, 1e19}, 1e18, 2); err != nil || len(got) != 0 {
		t.Errorf("unreachable ball returned %d points, err %v", len(got), err)
	}
}

// TestGridScanOnly covers the grids that cannot number their cells — a
// non-finite coordinate, or a cell so small that the cell numbers leave 63
// bits — which must still answer exactly as Linear does.
func TestGridScanOnly(t *testing.T) {
	base := randomPoints(40, 3, 5)
	withNaN := append(slices.Clone(base), []float64{math.NaN(), 0, 0})
	withInf := append(slices.Clone(base), []float64{0, math.Inf(-1), 0}, []float64{math.Inf(1), 0, 0})
	for name, tc := range map[string]struct {
		pts  [][]float64
		cell float64
	}{
		"nan":       {withNaN, 0.5},
		"inf":       {withInf, 0.5},
		"tiny-cell": {base, 1e-300},
		"2^63":      {randomPoints(40, 8, 6), 1e-8}, // (2·10⁸)⁸ cells
	} {
		g, err := NewGrid(tc.pts, tc.cell)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(g.cells) != 0 {
			t.Fatalf("%s: expected a scan-only grid", name)
		}
		rng := rand.New(rand.NewSource(1))
		for _, radius := range []float64{0, 0.3, 5, math.Inf(1)} {
			for _, p := range []float64{1, 2, math.Inf(1)} {
				center := slices.Clone(tc.pts[rng.Intn(len(base))])
				checkGrid(t, g, tc.pts, tc.cell, center, radius, p)
			}
		}
	}
}

// TestGridFlat checks the row-major constructor builds the same grid as
// NewGrid, that Cluster follows the grid's permutation, and what it rejects.
func TestGridFlat(t *testing.T) {
	pts := randomPoints(400, 3, 33)
	var rows []float64
	for _, pt := range pts {
		rows = append(rows, pt...)
	}
	a, err := NewGrid(pts, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGridFlat(rows, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.pts, b.pts) || !slices.Equal(a.ids, b.ids) || !slices.Equal(a.rank, b.rank) || !slices.Equal(a.cells, b.cells) {
		t.Fatal("NewGridFlat and NewGrid built different grids")
	}
	u := make([]float64, len(pts))
	for i := range u {
		u[i] = float64(i)
	}
	for k, v := range b.Cluster(u) {
		if int(v) != int(b.ids[k]) {
			t.Fatalf("Cluster put row %v at position %d, want row %d", v, k, b.ids[k])
		}
	}
	if _, err := NewGridFlat(nil, 2, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("no values: err = %v", err)
	}
	if _, err := NewGridFlat(rows[:7], 3, 1); !errors.Is(err, ErrDimension) {
		t.Errorf("7 values at dim 3: err = %v", err)
	}
	if _, err := NewGridFlat(rows, 0, 1); !errors.Is(err, ErrDimension) {
		t.Errorf("dim 0: err = %v", err)
	}
	if _, err := NewGrid([][]float64{{}, {}}, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("points without coordinates: err = %v", err)
	}
	if _, err := NewGridFlat(rows, 3, 0); err == nil {
		t.Error("zero cell size accepted")
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so a test can
// tell that a scan polls its context while it runs and not only up front.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestGridScanObservesContext checks both traversals stop on a context
// cancelled mid-scan: they must poll at least every ScanCheckRows
// candidates, not only before the first point.
func TestGridScanObservesContext(t *testing.T) {
	pts := randomPoints(5*ScanCheckRows, 2, 8)
	g, err := NewGrid(pts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for name, radius := range map[string]float64{"cell walk": 3, "row scan": 1e6} {
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if pos, err := g.Scan(cancelled, nil, []float64{0, 0}, radius, 2); !errors.Is(err, context.Canceled) || len(pos) != 0 {
			t.Errorf("%s: cancelled before the scan: %d positions, err %v", name, len(pos), err)
		}
		ctx := &countdownCtx{Context: context.Background(), left: 2}
		pos, err := g.Scan(ctx, nil, []float64{0, 0}, radius, 2)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled mid-scan: err = %v", name, err)
		}
		if len(pos) == 0 || len(pos) > 2*ScanCheckRows {
			t.Errorf("%s: the scan tested %d points before noticing, want (0, %d]", name, len(pos), 2*ScanCheckRows)
		}
	}
}

// TestSqThreshold proves sqThreshold's contract radius by radius: T(r) is
// the largest float64 whose square root is at most r — math.Sqrt(T) <= r
// and math.Sqrt of the next float64 above T is not — on zero, subnormals, a
// radius whose square is subnormal, every power of two from 2⁻²⁰ to 2²⁰ and
// its neighbours an ulp away, radii whose squares overflow, and 10⁵ seeded
// radii. Then, for 10⁶ seeded s around T (within a few ulps, or anywhere in
// [0, 2T]), s <= T must agree with math.Sqrt(s) <= r.
func TestSqThreshold(t *testing.T) {
	up := math.Inf(1)
	radii := []float64{0, math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 1e-160,
		1e154, math.Sqrt(math.MaxFloat64), 1e155, 1e200, 1e300, math.MaxFloat64}
	for k := -20; k <= 20; k++ {
		r := math.Ldexp(1, k)
		radii = append(radii, math.Nextafter(r, 0), r, math.Nextafter(r, up))
	}
	rng := rand.New(rand.NewSource(41))
	for len(radii) < 100_000 {
		var r float64
		switch len(radii) % 3 {
		case 0: // any finite bit pattern
			r = math.Float64frombits(rng.Uint64() >> 1)
		case 1: // exact_mixed's radii
			r = 0.03 + 0.17*rng.Float64()
		default: // around the cell sizes of the served grids
			r = math.Ldexp(rng.Float64(), rng.Intn(40)-20)
		}
		if !math.IsInf(r, 0) && !math.IsNaN(r) {
			radii = append(radii, r)
		}
	}
	agree := func(r, T, s float64) {
		if (s <= T) != (math.Sqrt(s) <= r) {
			t.Fatalf("r = %v, T = %v: s = %v gives s <= T %v but sqrt(s) <= r %v", r, T, s, s <= T, math.Sqrt(s) <= r)
		}
	}
	for i, r := range radii {
		T := sqThreshold(r)
		if !(math.Sqrt(T) <= r) || !(math.Sqrt(math.Nextafter(T, up)) > r) {
			t.Fatalf("r = %v: T = %v, sqrt(T) = %v, sqrt(next) = %v", r, T, math.Sqrt(T), math.Sqrt(math.Nextafter(T, up)))
		}
		if i%10 != 0 {
			continue
		}
		for range 100 {
			s := T
			if rng.Intn(2) == 0 {
				for n := rng.Intn(5); n > 0; n-- {
					s = math.Nextafter(s, 0)
				}
				for n := rng.Intn(5); n > 0; n-- {
					s = math.Nextafter(s, up)
				}
			} else {
				s = 2 * T * rng.Float64()
			}
			agree(r, T, s)
		}
	}
	if T := sqThreshold(0); T != 0 || math.Signbit(T) {
		t.Errorf("T(0) = %v, want +0", T)
	}
	if T := sqThreshold(math.MaxFloat64); T != math.MaxFloat64 {
		t.Errorf("T(MaxFloat64) = %v, want MaxFloat64: the square overflows, the threshold must not", T)
	}
	agree(1, sqThreshold(1), math.NaN())
}

// TestGridScanTestsOnlyUndecidedCells is the complexity guard of the cell
// walk's box decisions. At exact_mixed's geometry — 200 000 uniform points
// in the unit square, cells of 0.1, centres in [0.05, 0.95]², θ ~ N(0.1,
// 0.025) clipped to [0.03, 0.2] — the points Scan puts through the per-point
// test must be exactly the clamped box's points minus those of the cells
// whose bounding box alone decides them (wholly inside the ball or wholly
// outside, by the bounds recomputed here from each cell's own points), and
// the boxes must decide a real share. When the guard was written they
// decided ≈ 15 % of the box's points.
func TestGridScanTestsOnlyUndecidedCells(t *testing.T) {
	const n, queries, minShare = 200_000, 2000, 0.08
	rng := rand.New(rand.NewSource(43))
	flat := make([]float64, 2*n)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	g, err := NewGridFlat(flat, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	boxRows, decided := 0, 0
	for range queries {
		center := []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
		radius := math.Min(math.Max(0.1+0.025*rng.NormFloat64(), 0.03), 0.2)
		T := sqThreshold(radius)
		wantTested := 0
		var lo, hi [2]int
		for j, c := range center {
			lo[j] = int(math.Max(g.cellOf(c-radius, j), 0))
			hi[j] = int(math.Min(g.cellOf(c+radius, j), float64(g.extent[j]-1)))
		}
		var want []int32
		for c1 := lo[1]; c1 <= hi[1]; c1++ {
			for c0 := lo[0]; c0 <= hi[0]; c0++ {
				cell := g.find(uint64(c0)*g.stride[0] + uint64(c1)*g.stride[1])
				var smin, smax float64
				for j, c := range center {
					l, h := math.Inf(1), math.Inf(-1)
					for pos := cell.start; pos < cell.end; pos++ {
						l, h = math.Min(l, g.pts[2*pos+int32(j)]), math.Max(h, g.pts[2*pos+int32(j)])
					}
					gap := 0.0
					if c < l {
						gap = l - c
					} else if c > h {
						gap = c - h
					}
					far := math.Max(math.Abs(l-c), math.Abs(h-c))
					smin += gap * gap
					smax += far * far
				}
				rows := int(cell.end - cell.start)
				boxRows += rows
				if rows >= boxMinPoints && (smin > T || smax <= T) {
					decided += rows
				} else {
					wantTested += rows
				}
				for pos := cell.start; pos < cell.end; pos++ {
					if vector.DistanceLp(g.pts[2*pos:2*pos+2], center, 2) <= radius {
						want = append(want, pos)
					}
				}
			}
		}
		got, tested, err := g.scan(context.Background(), nil, center, radius, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tested != wantTested {
			t.Fatalf("centre %v radius %v: %d points went through the per-point test, want %d", center, radius, tested, wantTested)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("centre %v radius %v: Scan selected %d positions, the per-point test %d, or in another order", center, radius, len(got), len(want))
		}
	}
	share := float64(decided) / float64(boxRows)
	t.Logf("%.0f of %.0f box points per query decided by their cell's box (%.1f %%)", float64(decided)/queries, float64(boxRows)/queries, 100*share)
	if share < minShare {
		t.Errorf("the cell boxes decide %.1f %% of the box's points, want at least %.0f %%", 100*share, 100*minShare)
	}
}

// FuzzGridRadius decodes arbitrary bytes into a point set, a cell size and a
// query — coordinates on a coarse lattice (duplicates, cell boundaries) or,
// when the input asks, raw float64 bit patterns (NaN, ±Inf, 1e300) — and
// requires that the grid never panics and answers as the contract says:
// Linear's ids, in the reference order. Magnitudes below 1e-60 are flushed to
// zero: the grid prunes by the ball's bounding box, which presumes a computed
// distance is no smaller than the distance along one axis, and that fails
// once |d|ᵖ underflows to zero (Linear then "finds" points outside the ball).
func FuzzGridRadius(f *testing.F) {
	header := func(dim, raw, p byte, cell, radius float64) []byte {
		b := []byte{dim, raw, p}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cell))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(radius))
	}
	lattice := func(b []byte, coords ...int16) []byte {
		for _, c := range coords {
			b = binary.LittleEndian.AppendUint16(b, uint16(c))
		}
		return b
	}
	raw := func(b []byte, vals ...float64) []byte {
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(lattice(header(0, 0, 1, 0.5, 1), 0, 10, 20, 30, -40, 64, 64, 128))
	f.Add(lattice(header(1, 0, 0, 0.25, 1e18), 5, 5, 16, 16, 32, -32, 48, 48, 16, 16))
	f.Add(lattice(header(2, 0, 3, 1e-300, 2), 1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Add(lattice(header(1, 0, 2, 1e300, math.Inf(1)), 1, 2, 3, 4, 5, 6))
	f.Add(raw(header(0, 1, 1, 1, 3), 0, math.NaN(), 2, math.Inf(1), -1e300))
	// The training regime: the seeded winner (the copy of the middle point)
	// lies within one cell of the query and the slack is under a cell, so
	// the walk clips its rings to a box of a few cells.
	f.Add(lattice(header(1, 0, 0, 0.25, 0.1), 14, 10,
		0, 0, 40, 40, -30, 20, 20, -30, 15, 13, 60, -10, -50, -50, 30, 5, 5, 30))
	f.Add(lattice(header(2, 0, 0, 0.15, 0.1), 0, 0, 0,
		9, 9, 9, -9, 0, 9, 0, -9, -9, 3, -2, 1, 12, 12, -3, -12, 6, 0))
	// Points exactly on the sphere (lattice units of 1/64, so every square
	// and sum is exact): the twelve of radius 5 at d = 2 (the unrolled
	// loop) and twelve of radius 3 at d = 3 (the general loop), beside a
	// few just inside and just outside.
	f.Add(lattice(header(1, 0, 0, 4.0/64, 5.0/64), 0, 0,
		3, 4, 4, 3, -3, 4, -4, 3, 3, -4, 4, -3, -3, -4, -4, -3, 0, 5, 5, 0, 0, -5, -5, 0,
		1, 1, 4, 4, 6, 0, -2, 5))
	f.Add(lattice(header(2, 0, 0, 4.0/64, 3.0/64), 0, 0, 0,
		1, 2, 2, 2, 1, 2, 2, 2, 1, -1, -2, -2, -2, -1, -2, -2, -2, -1,
		3, 0, 0, 0, 3, 0, 0, 0, 3, -3, 0, 0, 0, -3, 0, 0, 0, -3,
		1, 1, 1, 2, 2, 2, 1, -2, 3))
	// Cell boxes tangent to the ball (centre (16, 16[, 16]), cells of 16,
	// boxMinPoints points a box, two of them its corners, and a radius
	// whose square is its own threshold): one from inside — its far corner
	// on the sphere, so its upper bound is exactly T and the cell is
	// appended whole; one from outside — its near face on the sphere with a
	// point there, so its lower bound is exactly T and the cell is still
	// tested point by point; and cells a unit or more beyond, which are
	// skipped.
	f.Add(lattice(header(1, 0, 0, 16.0/64, 13.0/64), 16, 16,
		11, 4, 15, 15, 12, 5, 13, 6, 14, 7, 12, 10, 13, 12, 14, 14, // inside: far corner (11, 4)
		29, 16, 31, 20, 30, 17, 29, 18, 30, 19, 31, 16, 29, 20, 30, 16, // outside: (29, 16) on the sphere
		0, 20, 2, 16, 1, 17, 0, 18, 2, 19, 1, 21, 0, 16, 2, 22, // a unit beyond
		20, 0, 31, 1, 21, 1, 25, 0, 30, 1, 22, 0, 24, 1, 28, 0)) // far beyond
	f.Add(lattice(header(2, 0, 0, 16.0/64, 12.0/64), 16, 16, 16,
		12, 8, 8, 15, 15, 15, 13, 9, 9, 14, 10, 10, 12, 12, 12, 15, 8, 14, 13, 14, 9, 14, 11, 13, // inside: far corner (12, 8, 8)
		28, 16, 16, 31, 20, 20, 29, 17, 17, 30, 18, 18, 28, 19, 20, 31, 16, 17, 29, 20, 16, 30, 17, 19, // outside: (28, 16, 16) on the sphere
		8, 8, 20, 14, 14, 16, 9, 9, 19, 10, 10, 18, 11, 12, 17, 13, 9, 20, 8, 14, 16, 12, 11, 18, // inside: far corner (8, 8, 20)
		0, 20, 20, 20, 0, 20, 20, 20, 0)) // beyond, one point a cell
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 19 {
			return
		}
		dim, raw := int(data[0]%4)+1, data[1]%4 == 1
		p := []float64{2, 1, math.Inf(1), 3}[data[2]%4]
		cell := math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))
		radius := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[11:])))
		data = data[19:]
		var vals []float64
		for len(vals) < 65*dim {
			if raw && len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				if math.Abs(v) < 1e-60 {
					v = 0 // keep coordinate differences where their powers cannot underflow
				}
				vals = append(vals, v)
				data = data[8:]
			} else if !raw && len(data) >= 2 {
				vals = append(vals, float64(int16(binary.LittleEndian.Uint16(data)))/64)
				data = data[2:]
			} else {
				break
			}
		}
		if len(vals) < 2*dim {
			return
		}
		center, vals := vals[:dim], vals[dim:]
		pts := make([][]float64, len(vals)/dim)
		for i := range pts {
			pts[i] = vals[i*dim : (i+1)*dim]
		}
		g, err := NewGrid(pts, cell)
		if err != nil {
			if cell > 0 && !math.IsInf(cell, 0) {
				t.Fatalf("NewGrid(%d points, cell %v): %v", len(pts), cell, err)
			}
			return
		}
		if math.IsNaN(radius) {
			if _, err := g.Radius(center, radius, p); !errors.Is(err, ErrRadius) {
				t.Fatalf("NaN radius: err = %v", err)
			}
			return
		}
		checkGrid(t, g, pts, cell, center, radius, p)
		if slices.ContainsFunc(vals, isNotFinite) || slices.ContainsFunc(center, isNotFinite) {
			return
		}
		checkNearest(t, g, pts, cell, center, !raw)
	})
}

func isNotFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// refNearest is the brute-force nearest row under L2: the first strictly
// nearer row wins and a row at an infinite distance still counts, so ties
// break toward the lowest id.
func refNearest(flat []float64, dim int, q []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for i := 0; i*dim < len(flat); i++ {
		if sq := vector.SqDistanceFlat(flat[i*dim:(i+1)*dim], q); sq < bestSq || best < 0 {
			best, bestSq = i, sq
		}
	}
	return best, bestSq
}

// checkNearest compares NearestStale with refNearest twice: on g itself
// (its points are the live rows: no slack, no seed), and on the same points
// as slots 2i+1 of a live view the way the prototype store searches it —
// slot 0 an un-indexed copy of a point that seeds the search, the other
// even slots tombstones, and with exact (lattice) input every point moved by
// up to slack. Both must return the reference's id and distance.
func checkNearest(t *testing.T, g *Grid, pts [][]float64, cell float64, q []float64, exact bool) {
	t.Helper()
	n, dim := len(pts), len(q)
	check := func(what string, got int, gotSq float64, want int, wantSq float64) {
		t.Helper()
		if got != want || gotSq != wantSq {
			t.Fatalf("%s: cell %v q %v: NearestStale (%d, %v), reference (%d, %v)", what, cell, q, got, gotSq, want, wantSq)
		}
	}
	want, wantSq := refNearest(slices.Concat(pts...), dim, q)
	got, gotSq := g.NearestStale(q, 0, vector.Chunked{}, -1, 0)
	check("stored rows", got, gotSq, want, wantSq)

	ids := make([]int32, n)
	live := make([]float64, (2*n+1)*dim)
	slack := 1.0 // raw input: a slack with nothing moved
	if exact {
		slack = float64(dim) / 64
	}
	for s := 0; s <= 2*n; s += 2 {
		vector.MaskRow(live[s*dim : (s+1)*dim])
	}
	copy(live, pts[n/2])
	for i, p := range pts {
		ids[i] = int32(2*i + 1)
		row := live[(2*i+1)*dim : (2*i+2)*dim]
		copy(row, p)
		if exact {
			for j := range row {
				row[j] += float64((i+j)%3-1) / 64 // lattice points stay on the lattice
			}
		}
	}
	slots, err := NewGridFlatIDs(slices.Concat(pts...), dim, cell, ids)
	if err != nil {
		t.Fatal(err)
	}
	view := vector.ChunkedFromFlat(live, dim)
	seed, seedSq := refNearest(live[:dim], dim, q) // slot 0; the tombstones are never nearer
	want, wantSq = refNearest(live, dim, q)
	got, gotSq = slots.NearestStale(q, slack, view, seed, seedSq)
	check("slots", got, gotSq, want, wantSq)
}

func BenchmarkGridBuild200k(b *testing.B) {
	pts := randomPoints(200000, 2, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGrid(pts, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleGrid_Scan() {
	pts := [][]float64{{0, 0}, {3, 3}, {0.5, 0}, {0, 0.4}}
	g, _ := NewGrid(pts, 1)
	u := g.Cluster([]float64{10, 20, 30, 40}) // one value per point, by row id
	pos, _ := g.Scan(context.Background(), nil, []float64{0, 0}, 1, 2)
	sum := 0.0
	for _, at := range pos {
		sum += u[at]
	}
	fmt.Println(len(pos), sum)
	// Output: 3 80
}

package index

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randomPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()*2 - 1
		}
	}
	return pts
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func sameIDs(a, b []int) bool {
	as, bs := sortedCopy(a), sortedCopy(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestConstructionErrors(t *testing.T) {
	if _, err := NewLinear(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("linear empty err = %v", err)
	}
	if _, err := NewGrid(nil, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("grid empty err = %v", err)
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := NewLinear(ragged); !errors.Is(err, ErrDimension) {
		t.Errorf("linear ragged err = %v", err)
	}
	if _, err := NewGrid(ragged, 1); !errors.Is(err, ErrDimension) {
		t.Errorf("grid ragged err = %v", err)
	}
	pts := [][]float64{{1, 2}}
	if _, err := NewGrid(pts, 0); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGrid(pts, math.NaN()); err == nil {
		t.Error("NaN cell size accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	pts := randomPoints(10, 3, 1)
	lin, _ := NewLinear(pts)
	grid, _ := NewGrid(pts, 0.5)
	for name, idx := range map[string]radiusIndex{"linear": lin, "grid": grid} {
		if _, err := idx.Radius([]float64{0, 0}, 1, 2); !errors.Is(err, ErrDimension) {
			t.Errorf("%s: wrong-dim query err = %v", name, err)
		}
		if _, err := idx.Radius([]float64{0, 0, 0}, -1, 2); !errors.Is(err, ErrRadius) {
			t.Errorf("%s: negative radius err = %v", name, err)
		}
		for _, p := range []float64{0, 0.5, -1, math.Inf(-1), math.NaN()} {
			if _, err := idx.Radius([]float64{0, 0, 0}, 1, p); !errors.Is(err, ErrNorm) {
				t.Errorf("%s: norm p = %v: err = %v", name, p, err)
			}
		}
		if idx.Len() != 10 || idx.Dim() != 3 {
			t.Errorf("%s: Len/Dim = %d/%d", name, idx.Len(), idx.Dim())
		}
	}
	// Scan refuses a bad norm before testing any point, on the cell walk and
	// on the row-order scan alike.
	for _, radius := range []float64{0.5, 1e300} {
		pos, err := grid.Scan(context.Background(), nil, []float64{0, 0, 0}, radius, 0.5)
		if !errors.Is(err, ErrNorm) || len(pos) != 0 {
			t.Errorf("Scan radius %v, p = 0.5: %d positions, err = %v", radius, len(pos), err)
		}
	}
}

func TestRadiusKnownConfiguration(t *testing.T) {
	// Points on a line; centre at origin with radius 1.5 must catch ids 0..3.
	pts := [][]float64{{-1.5, 0}, {-1, 0}, {0, 0}, {1.5, 0}, {2, 0}, {5, 5}}
	want := []int{0, 1, 2, 3}
	lin, _ := NewLinear(pts)
	grid, _ := NewGrid(pts, 1)
	for name, idx := range map[string]radiusIndex{"linear": lin, "grid": grid} {
		ids, err := idx.Radius([]float64{0, 0}, 1.5, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameIDs(ids, want) {
			t.Errorf("%s: ids = %v, want %v", name, sortedCopy(ids), want)
		}
	}
}

func TestRadiusBoundaryInclusive(t *testing.T) {
	pts := [][]float64{{1, 0}, {0, 1}, {2, 0}}
	for name, build := range map[string]func() radiusIndex{
		"linear": func() radiusIndex { i, _ := NewLinear(pts); return i },
		"grid":   func() radiusIndex { i, _ := NewGrid(pts, 0.5); return i },
	} {
		idx := build()
		ids, err := idx.Radius([]float64{0, 0}, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(ids, []int{0, 1}) {
			t.Errorf("%s: points at exactly distance θ must be included; got %v", name, sortedCopy(ids))
		}
	}
}

// TestGridAndKDTreeAgreeWithLinear checks both epoch indexes against Linear:
// the grid's Radius returns Linear's set under every norm, and under L2 the
// k-d tree's LeafRuns cover it.
func TestGridAndKDTreeAgreeWithLinear(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 5} {
		pts := randomPoints(800, dim, int64(dim))
		lin, err := NewLinear(pts)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := NewGrid(pts, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := NewBulkKDTree(slices.Concat(pts...), dim)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + dim)))
		for _, p := range []float64{1, 2, math.Inf(1)} {
			for q := 0; q < 25; q++ {
				center := make([]float64, dim)
				for j := range center {
					center[j] = rng.Float64()*2 - 1
				}
				radius := rng.Float64() * 0.6
				want, err := lin.Radius(center, radius, p)
				if err != nil {
					t.Fatal(err)
				}
				gotGrid, err := grid.Radius(center, radius, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(want, gotGrid) {
					t.Fatalf("dim=%d p=%v: grid disagrees with linear (%d vs %d matches)", dim, p, len(gotGrid), len(want))
				}
				if p != 2 {
					continue
				}
				runs, _ := tree.LeafRuns(center, radius, nil, nil)
				covered := runIDs(t, tree, runs)
				for _, id := range want {
					if !covered[id] {
						t.Fatalf("dim=%d: k-d tree leaf runs miss id %d", dim, id)
					}
				}
			}
		}
	}
}

func TestZeroRadius(t *testing.T) {
	pts := [][]float64{{0.5, 0.5}, {0.25, 0.25}}
	lin, _ := NewLinear(pts)
	grid, _ := NewGrid(pts, 0.1)
	for name, idx := range map[string]radiusIndex{"linear": lin, "grid": grid} {
		ids, err := idx.Radius([]float64{0.5, 0.5}, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(ids, []int{0}) {
			t.Errorf("%s: zero-radius query = %v", name, ids)
		}
		none, _ := idx.Radius([]float64{0.9, 0.9}, 0, 2)
		if len(none) != 0 {
			t.Errorf("%s: expected no matches, got %v", name, none)
		}
	}
}

func TestLargeRadiusReturnsAll(t *testing.T) {
	pts := randomPoints(200, 3, 9)
	for name, build := range map[string]func() (radiusIndex, error){
		"linear": func() (radiusIndex, error) { return NewLinear(pts) },
		"grid":   func() (radiusIndex, error) { i, err := NewGrid(pts, 0.3); return i, err },
	} {
		idx, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ids, err := idx.Radius([]float64{0, 0, 0}, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(pts) {
			t.Errorf("%s: huge radius returned %d of %d points", name, len(ids), len(pts))
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	for name, build := range map[string]func() (radiusIndex, error){
		"linear": func() (radiusIndex, error) { return NewLinear(pts) },
		"grid":   func() (radiusIndex, error) { i, err := NewGrid(pts, 0.5); return i, err },
	} {
		idx, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ids, err := idx.Radius([]float64{1, 1}, 0.1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 3 {
			t.Errorf("%s: duplicates must all be returned, got %v", name, ids)
		}
	}
}

func TestSinglePointIndex(t *testing.T) {
	pts := [][]float64{{0.3, 0.7}}
	grid, err := NewGrid(pts, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := grid.Radius([]float64{0.3, 0.7}, 0.01, 2)
	if err != nil || len(ids) != 1 {
		t.Errorf("single point query = %v, %v", ids, err)
	}
}

func BenchmarkRadiusLinear10k(b *testing.B) { benchRadius(b, "linear") }
func BenchmarkRadiusGrid10k(b *testing.B)   { benchRadius(b, "grid") }

func benchRadius(b *testing.B, kind string) {
	pts := randomPoints(10000, 3, 42)
	var idx radiusIndex
	var err error
	switch kind {
	case "linear":
		idx, err = NewLinear(pts)
	case "grid":
		idx, err = NewGrid(pts, 0.2)
	}
	if err != nil {
		b.Fatal(err)
	}
	center := []float64{0, 0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Radius(center, 0.2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

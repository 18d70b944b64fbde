package index

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func samplePoints(t *testing.T, rng *rand.Rand, dim, n int) []float64 {
	t.Helper()
	pts := make([]float64, dim*n)
	for i := range pts {
		pts[i] = rng.Float64()
	}
	return pts
}

// locateByRegion resolves the leaf containing x from the region boxes alone,
// as the ground truth Locate must match.
func locateByRegion(t *testing.T, p *Partition, x []float64) int {
	t.Helper()
	found := -1
	for leaf := 0; leaf < p.Leaves(); leaf++ {
		lo, hi, err := p.Region(leaf)
		if err != nil {
			t.Fatalf("Region(%d): %v", leaf, err)
		}
		in := true
		for a := range x {
			if x[a] < lo[a] || x[a] >= hi[a] {
				in = false
				break
			}
		}
		if in {
			if found >= 0 {
				t.Fatalf("point %v inside two regions (%d and %d)", x, found, leaf)
			}
			found = leaf
		}
	}
	if found < 0 {
		t.Fatalf("point %v inside no region", x)
	}
	return found
}

// boxDist returns the L2 distance from x to the leaf's region box.
func boxDist(t *testing.T, p *Partition, leaf int, x []float64) float64 {
	t.Helper()
	lo, hi, err := p.Region(leaf)
	if err != nil {
		t.Fatalf("Region(%d): %v", leaf, err)
	}
	var sq float64
	for a := range x {
		if d := lo[a] - x[a]; d > 0 {
			sq += d * d
		} else if d := x[a] - hi[a]; d > 0 {
			sq += d * d
		}
	}
	return math.Sqrt(sq)
}

func TestPartitionLocateMatchesRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for _, leaves := range []int{1, 2, 3, 4, 7, 8} {
			pts := samplePoints(t, rng, dim, 500)
			cell := 0.0
			if dim <= 3 {
				cell = 0.05
			}
			p, err := NewPartition(dim, leaves, pts, cell)
			if err != nil {
				t.Fatalf("dim=%d leaves=%d: %v", dim, leaves, err)
			}
			if p.Leaves() != leaves {
				t.Fatalf("dim=%d: got %d leaves, want %d", dim, p.Leaves(), leaves)
			}
			counts := make([]int, leaves)
			for i := 0; i < 200; i++ {
				x := make([]float64, dim)
				for a := range x {
					x[a] = rng.Float64()*2 - 0.5 // include points outside the sample hull
				}
				got := p.Locate(x)
				want := locateByRegion(t, p, x)
				if got != want {
					t.Fatalf("dim=%d leaves=%d: Locate(%v)=%d, regions say %d", dim, leaves, x, got, want)
				}
				counts[got]++
			}
			// Count balance on the sample itself: every leaf should hold a
			// non-trivial share (the build cuts at count quantiles).
			sampleCounts := make([]int, leaves)
			for i := 0; i < 500; i++ {
				sampleCounts[p.Locate(pts[i*dim:(i+1)*dim])]++
			}
			for leaf, c := range sampleCounts {
				if c == 0 {
					t.Errorf("dim=%d leaves=%d: leaf %d got no sample points (%v)", dim, leaves, leaf, sampleCounts)
				}
			}
		}
	}
}

func TestPartitionTouchingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range []int{2, 4} {
		pts := samplePoints(t, rng, dim, 400)
		p, err := NewPartition(dim, 6, pts, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		extra := make([]float64, 6)
		for i := range extra {
			extra[i] = rng.Float64() * 0.05
		}
		for i := 0; i < 300; i++ {
			x := make([]float64, dim)
			for a := range x {
				x[a] = rng.Float64()*1.4 - 0.2
			}
			theta := rng.Float64() * 0.3
			got := p.Touching(x, theta, extra, nil)
			slices.Sort(got)
			var want []int
			for leaf := 0; leaf < p.Leaves(); leaf++ {
				if boxDist(t, p, leaf, x) <= theta+extra[leaf] {
					want = append(want, leaf)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("dim=%d: Touching(%v, %v) = %v, want %v", dim, x, theta, got, want)
			}
		}
		// A point well inside one region with a tiny radius touches only it.
		q := pts[:dim]
		if leaves := p.Touching(q, 0, nil, nil); len(leaves) != 1 || leaves[0] != p.Locate(q) {
			t.Fatalf("zero-radius Touching(%v) = %v, want exactly [%d]", q, leaves, p.Locate(q))
		}
	}
}

func TestPartitionGridSnapping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := samplePoints(t, rng, 2, 300)
	const cell = 0.125
	p, err := NewPartition(2, 4, pts, cell)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range p.nodes {
		if nd.axis < 0 {
			continue
		}
		snapped := math.Round(nd.cut/cell) * cell
		if nd.cut != snapped {
			t.Errorf("node %d cut %v not on the %v lattice", i, nd.cut, cell)
		}
	}
}

func TestPartitionJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := samplePoints(t, rng, 3, 200)
	p, err := NewPartition(3, 5, pts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Partition
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if q.Dim() != p.Dim() || q.Leaves() != p.Leaves() {
		t.Fatalf("round trip changed shape: dim %d→%d leaves %d→%d", p.Dim(), q.Dim(), p.Leaves(), q.Leaves())
	}
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if p.Locate(x) != q.Locate(x) {
			t.Fatalf("round trip changed Locate(%v): %d vs %d", x, p.Locate(x), q.Locate(x))
		}
	}
	if err := json.Unmarshal([]byte(`{"dim":2,"leaves":2,"nodes":[{"axis":-1,"leaf":0}]}`), &q); err == nil {
		t.Fatal("missing leaf id accepted")
	}
	if err := json.Unmarshal([]byte(`{"dim":2,"leaves":1,"nodes":[{"axis":0,"cut":0.5,"left":0,"right":0}]}`), &q); err == nil {
		t.Fatal("cyclic node graph accepted")
	}
}

func TestPartitionDegenerateSample(t *testing.T) {
	// An all-duplicate sample cannot balance, but must not panic and must
	// still produce the requested leaf count with disjoint covering regions.
	pts := make([]float64, 2*10)
	for i := range pts {
		pts[i] = 0.5
	}
	p, err := NewPartition(2, 4, pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Leaves() != 4 {
		t.Fatalf("got %d leaves, want 4", p.Leaves())
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if got, want := p.Locate(x), locateByRegion(t, p, x); got != want {
			t.Fatalf("Locate(%v)=%d, regions say %d", x, got, want)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	pts := []float64{0, 0, 1, 1}
	if _, err := NewPartition(0, 1, pts, 0); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := NewPartition(2, 0, pts, 0); err == nil {
		t.Fatal("0 leaves accepted")
	}
	if _, err := NewPartition(2, 3, pts, 0); err == nil {
		t.Fatal("more leaves than sample points accepted")
	}
	if _, err := NewPartition(2, 1, []float64{0, 0, 1}, 0); err == nil {
		t.Fatal("ragged sample accepted")
	}
	if _, err := NewPartition(2, 1, []float64{0, math.NaN()}, 0); err == nil {
		t.Fatal("NaN sample accepted")
	}
}

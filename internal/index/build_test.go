package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBuild fails t unless two grids built from the same rows hold the
// same arrays, position for position and float for float to the bit.
func sameBuild(t *testing.T, procs int, got, want *Grid) {
	t.Helper()
	floats := func(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }
	for _, c := range []struct {
		name string
		same bool
	}{
		{"origin", floats(got.origin, want.origin)},
		{"hi", floats(got.hi, want.hi)},
		{"extent", slices.Equal(got.extent, want.extent)},
		{"stride", slices.Equal(got.stride, want.stride)},
		{"pts", floats(got.pts, want.pts)},
		{"ids", slices.Equal(got.ids, want.ids)},
		{"rank", slices.Equal(got.rank, want.rank)},
		{"cells", slices.Equal(got.cells, want.cells) && got.shift == want.shift},
		{"runKeys", slices.Equal(got.runKeys, want.runKeys)},
		{"runEnds", slices.Equal(got.runEnds, want.runEnds)},
		{"boxStarts", slices.Equal(got.boxStarts, want.boxStarts)},
		{"boxes", floats(got.boxes, want.boxes)},
	} {
		if !c.same {
			t.Fatalf("procs %d: %s differs from the one-chunk build", procs, c.name)
		}
	}
}

// FuzzGridBuild holds the chunked grid build to the one-chunk build. Bytes
// become a dimension (1-3), a cell size (one so fine the cells overflow,
// for the scan-only grid), up to 64 rows on a lattice with NaN, ±Inf, ±0,
// ±1e300 and repeated rows mixed in, and ids: none, ascending with holes,
// or shuffled. The grid built in 2, 3 and 7 chunks must equal the one-chunk
// build array for array, and cluster a column to the same bits — the
// extent merged from the chunks, the directory's slots, the runs, the
// scatter's order and the boxes alike.
func FuzzGridBuild(f *testing.F) {
	f.Add([]byte{1, 0, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{0, 1, 8, 5, 5, 5, 5, 5, 5, 5, 5, 2})                                // one cell, repeated points
	f.Add([]byte{0, 2, 6, 250, 3, 244, 4, 246, 247, 1})                              // -0 and +0, NaN at a chunk start
	f.Add([]byte{1, 3, 9, 10, 20, 200, 100, 30, 40, 50, 60, 70, 80, 90, 9, 8, 1, 2}) // ids with holes
	f.Add([]byte{2, 0, 20, 241, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0})
	rng := rand.New(rand.NewSource(60))
	for range 6 {
		seed := make([]byte, 240)
		rng.Read(seed)
		f.Add(seed)
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		d := int(b.next()%3) + 1
		cell := []float64{0.25, 0.5, 1, 1e-300}[b.next()%4]
		n := int(b.next()%64) + 1
		rows := make([]float64, n*d)
		for i := range n {
			row := rows[i*d : (i+1)*d]
			if i > 0 && b.next()%8 == 0 {
				copy(row, rows[(i-1)*d:i*d])
				continue
			}
			for j := range row {
				if v := b.next(); v >= 240 {
					row[j] = special[v%8]
				} else {
					row[j] = float64(int8(v)) / 16
				}
			}
		}
		var ids []int32
		if mode := b.next() % 3; mode > 0 {
			ids = make([]int32, n)
			next := int32(0)
			for i := range ids {
				next += int32(b.next() % 3)
				ids[i] = next
				next++
			}
			if mode == 2 {
				for i := n - 1; i > 0; i-- {
					k := int(b.next()) % (i + 1)
					ids[i], ids[k] = ids[k], ids[i]
				}
			}
		}
		want, wantErr := newGridFlat(rows, d, cell, ids, 1)
		size := n
		if ids != nil {
			size = int(slices.Max(ids)) + 1
		}
		col := make([]float64, size)
		for i := range col {
			col[i] = float64(i)
		}
		for _, procs := range []int{2, 3, 7} {
			if n >= 2 && len(newGridBuild(&Grid{dim: d}, rows, procs).parts) < 2 {
				t.Fatalf("%d rows build in one chunk at procs %d", n, procs)
			}
			got, err := newGridFlat(rows, d, cell, ids, procs)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("procs %d: error %v, one chunk %v", procs, err, wantErr)
			}
			if err != nil {
				continue
			}
			sameBuild(t, procs, got, want)
			if !slices.EqualFunc(got.Cluster(col), want.Cluster(col), sameBits) {
				t.Fatalf("procs %d: Cluster differs from the one-chunk build's", procs)
			}
		}
	})
}

// TestGridBuildSplitsPastTheThreshold builds a grid large enough that
// NewGridFlat splits it, and requires the one-chunk build's arrays at
// several chunk counts, with duplicate rows straddling the chunk edges.
func TestGridBuildSplitsPastTheThreshold(t *testing.T) {
	const n = minParallelPoints + 3
	rng := rand.New(rand.NewSource(61))
	rows := make([]float64, 2*n)
	for i := range n {
		if i%5 == 4 {
			copy(rows[2*i:2*i+2], rows[2*i-2:2*i])
			continue
		}
		rows[2*i], rows[2*i+1] = float64(rng.Intn(400))/64-3, rng.NormFloat64()
	}
	want, err := newGridFlat(rows, 2, 0.5, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 7} {
		got, err := newGridFlat(rows, 2, 0.5, nil, procs)
		if err != nil {
			t.Fatal(err)
		}
		sameBuild(t, procs, got, want)
	}
	got, err := NewGridFlat(rows, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sameBuild(t, buildProcs(n), got, want)
}

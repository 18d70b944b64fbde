package vector

import (
	"math"
	"math/rand"
	"testing"
)

// TestChunkedRoundTrip verifies the chunked view reproduces the flat matrix
// row for row, across chunk-boundary row counts.
func TestChunkedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 3, 9} {
		for _, rows := range []int{0, 1, ChunkRows - 1, ChunkRows, ChunkRows + 1, 3*ChunkRows + 17} {
			flat := make([]float64, rows*d)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			m := ChunkedFromFlat(flat, d)
			if m.Rows() != rows || m.Width() != d {
				t.Fatalf("d=%d rows=%d: view reports %d×%d", d, rows, m.Rows(), m.Width())
			}
			for k := 0; k < rows; k++ {
				row := m.Row(k)
				for j := 0; j < d; j++ {
					if row[j] != flat[k*d+j] {
						t.Fatalf("d=%d rows=%d: row %d differs at %d", d, rows, k, j)
					}
				}
			}
		}
	}
}

// TestArgminSqDistanceChunkedMatchesFlat is the exactness property of the
// chunked kernel: same winner index and bit-identical squared distance as
// the flat scan, for both unrolled widths, the generic loop and across chunk
// boundaries.
func TestArgminSqDistanceChunkedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
		for _, rows := range []int{0, 1, 7, ChunkRows, ChunkRows + 3, 2*ChunkRows + 100} {
			flat := make([]float64, rows*d)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			m := ChunkedFromFlat(flat, d)
			for trial := 0; trial < 20; trial++ {
				q := make([]float64, d)
				for i := range q {
					q[i] = rng.NormFloat64()
				}
				if trial == 0 && rows > 0 {
					copy(q, flat[(rows-1)*d:rows*d]) // exact hit in the last row
				}
				wantIdx, wantSq := ArgminSqDistance(flat, d, q)
				gotIdx, gotSq := ArgminSqDistanceChunkedRange(m, q, 0, -1, math.Inf(1))
				if gotIdx != wantIdx || (wantIdx >= 0 && gotSq != wantSq) {
					t.Fatalf("d=%d rows=%d: chunked argmin (%d, %v), flat (%d, %v)",
						d, rows, gotIdx, gotSq, wantIdx, wantSq)
				}
			}
		}
	}
}

// TestArgminSqDistanceChunkedRange verifies the tail-scan primitive against a
// brute-force scan of the same row range, including ranges that start inside
// a chunk and carry a pre-seeded best.
func TestArgminSqDistanceChunkedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const d = 3
	rows := 2*ChunkRows + 50
	flat := make([]float64, rows*d)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	m := ChunkedFromFlat(flat, d)
	for _, lo := range []int{0, 1, ChunkRows - 1, ChunkRows, ChunkRows + 13, rows - 1, rows} {
		q := make([]float64, d)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		want, wantSq := -1, math.Inf(1)
		for k := lo; k < rows; k++ {
			if sq := SqDistanceFlat(flat[k*d:(k+1)*d], q); sq < wantSq {
				want, wantSq = k, sq
			}
		}
		got, gotSq := ArgminSqDistanceChunkedRange(m, q, lo, -1, math.Inf(1))
		if got != want || (want >= 0 && gotSq != wantSq) {
			t.Fatalf("lo=%d: range argmin (%d, %v), want (%d, %v)", lo, got, gotSq, want, wantSq)
		}
		// A seed below every row's distance must survive untouched.
		if sIdx, sSq := ArgminSqDistanceChunkedRange(m, q, lo, rows+5, wantSq/2); sIdx != rows+5 || sSq != wantSq/2 {
			t.Fatalf("lo=%d: seeded range argmin (%d, %v), want seed (%d, %v)", lo, sIdx, sSq, rows+5, wantSq/2)
		}
	}
}

// TestArgminSqDistanceChunkedSeededCutoff verifies that a negative seed index
// acts as a pure cutoff: nothing at or above it is reported.
func TestArgminSqDistanceChunkedSeededCutoff(t *testing.T) {
	flat := []float64{0, 0, 1, 1, 2, 2}
	m := ChunkedFromFlat(flat, 2)
	q := []float64{0, 0}
	if idx, _ := ArgminSqDistanceChunkedRange(m, q, 0, -1, 0); idx != -1 {
		t.Fatalf("cutoff 0: got index %d, want -1", idx)
	}
	if idx, sq := ArgminSqDistanceChunkedRange(m, q, 0, -1, 0.5); idx != 0 || sq != 0 {
		t.Fatalf("cutoff 0.5: got (%d, %v), want (0, 0)", idx, sq)
	}
}

package vector

import (
	"math"
	"math/rand"
	"testing"
)

// TestMaskedRowsTransparent is the sentinel exactness property: for random
// matrices with a random subset of rows masked, every search kernel must
// return exactly what a reference scan over the unmasked rows returns — a
// masked row never wins an argmin, never passes a finite within-cutoff, and
// never perturbs a running best.
func TestMaskedRowsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12} {
		for trial := 0; trial < 40; trial++ {
			rows := 1 + rng.Intn(300)
			flat := make([]float64, rows*d)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			masked := make([]bool, rows)
			anyLive := false
			for k := 0; k < rows; k++ {
				if rng.Float64() < 0.3 {
					masked[k] = true
					MaskRow(flat[k*d : (k+1)*d])
				} else {
					anyLive = true
				}
			}
			q := make([]float64, d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}

			// Reference: the same argmin kernel over a compacted matrix of
			// only the live rows (identical width dispatch, hence identical
			// float association), with indices mapped back.
			var liveFlat []float64
			var liveIdx []int
			for k := 0; k < rows; k++ {
				if masked[k] {
					continue
				}
				liveFlat = append(liveFlat, flat[k*d:(k+1)*d]...)
				liveIdx = append(liveIdx, k)
			}
			wantIdx, wantSq := -1, math.Inf(1)
			if len(liveIdx) > 0 {
				ci, csq := ArgminSqDistanceSeeded(liveFlat, d, q, -1, math.Inf(1))
				wantIdx, wantSq = liveIdx[ci], csq
			}

			gotIdx, gotSq := ArgminSqDistanceSeeded(flat, d, q, -1, math.Inf(1))
			if anyLive && (gotIdx != wantIdx || gotSq != wantSq) {
				t.Fatalf("d=%d rows=%d: argmin over masked matrix = (%d, %v), reference over live rows = (%d, %v)",
					d, rows, gotIdx, gotSq, wantIdx, wantSq)
			}
			if !anyLive && gotIdx >= 0 {
				t.Fatalf("d=%d rows=%d: all rows masked but argmin returned row %d", d, rows, gotIdx)
			}

			// Chunked variant must agree on the same data.
			cm := ChunkedFromFlat(flat, d)
			cIdx, cSq := ArgminSqDistanceChunkedRange(cm, q, 0, -1, math.Inf(1))
			if anyLive && (cIdx != wantIdx || cSq != wantSq) {
				t.Fatalf("d=%d rows=%d: chunked argmin = (%d, %v), reference = (%d, %v)", d, rows, cIdx, cSq, wantIdx, wantSq)
			}

			// Range: masked rows must be absent for any finite radius, and
			// a live row's within-test is its full distance's.
			r := 0.5 + 2*rng.Float64()
			for k := 0; k < rows; k++ {
				row := flat[k*d : (k+1)*d]
				_, within := SqDistanceWithin(row, q, r*r)
				if masked[k] && within {
					t.Fatalf("d=%d: masked row %d reported within radius %v", d, k, r)
				}
				if !masked[k] && within != (SqDistanceFlat(row, q) <= r*r) {
					t.Fatalf("d=%d: live row %d within radius %v: within-test %v disagrees with its distance", d, k, r, within)
				}
				if _, within := SqDistanceWithin(row, q, 1e300); masked[k] && within {
					t.Fatalf("d=%d: masked row %d passed a finite within-cutoff", d, k)
				}
			}
		}
	}
}

// TestRowMasked covers the sentinel itself: MaskRow sets every component to
// +Inf, and masking only the leading columns still puts the row at infinite
// distance.
func TestRowMasked(t *testing.T) {
	row := []float64{1, 2, 3}
	MaskRow(row)
	for _, v := range row {
		if !math.IsInf(v, 1) {
			t.Fatalf("MaskRow left component %v", v)
		}
	}
	part := []float64{1, 2, -1}
	MaskRow(part[:2])
	if sq := SqDistanceFlat(part, []float64{0, 0, 0}); !math.IsInf(sq, 1) {
		t.Fatalf("partially masked row at finite distance %v", sq)
	}
}

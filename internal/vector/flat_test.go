package vector

import (
	"math"
	"math/rand"
	"testing"
)

func TestSqDistanceFlatMatchesSqDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		want := SqDistance(a, b)
		got := SqDistanceFlat(a, b)
		if math.Abs(got-want) > 1e-12*(1+want) {
			t.Errorf("n=%d: SqDistanceFlat=%v, SqDistance=%v", n, got, want)
		}
	}
}

func TestSqDistanceFlatDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	SqDistanceFlat([]float64{1, 2}, []float64{1})
}

func TestArgminSqDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
		for _, rows := range []int{1, 2, 7, 100} {
			flat := make([]float64, rows*d)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			q := make([]float64, d)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			got, gotSq := ArgminSqDistance(flat, d, q)
			// Brute force with the sequential kernel.
			want, wantSq := 0, math.Inf(1)
			for k := 0; k < rows; k++ {
				if sq := SqDistance(flat[k*d:(k+1)*d], q); sq < wantSq {
					want, wantSq = k, sq
				}
			}
			if got != want && math.Abs(gotSq-wantSq) > 1e-12*(1+wantSq) {
				t.Errorf("d=%d rows=%d: argmin %d (sq %v), want %d (sq %v)", d, rows, got, gotSq, want, wantSq)
			}
		}
	}
}

func TestAppendWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range []int{1, 3, 5, 9} {
		for _, rows := range []int{0, 1, 7, 200} {
			flat := make([]float64, rows*d)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			ids := make([]int32, rows)
			for i := range ids {
				ids[i] = int32(1000 + i)
			}
			q := make([]float64, d)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			cutoffSq := 2 * rng.Float64() * float64(d)
			got := AppendWithin(flat, d, q, cutoffSq, 10, []int{-1})
			gotIDs := AppendWithinIDs(flat, d, q, cutoffSq, ids, nil)
			want := []int{-1} // AppendWithin extends, never resets
			for k := 0; k < rows; k++ {
				if SqDistanceFlat(flat[k*d:(k+1)*d], q) <= cutoffSq {
					want = append(want, 10+k)
				}
			}
			if len(got) != len(want) || len(gotIDs) != len(want)-1 {
				t.Fatalf("d=%d rows=%d: AppendWithin %d hits, AppendWithinIDs %d, want %d",
					d, rows, len(got)-1, len(gotIDs), len(want)-1)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d rows=%d: AppendWithin[%d]=%d, want %d", d, rows, i, got[i], want[i])
				}
				if i > 0 && gotIDs[i-1] != want[i]+990 {
					t.Fatalf("d=%d rows=%d: AppendWithinIDs[%d]=%d, want %d", d, rows, i-1, gotIDs[i-1], want[i]+990)
				}
			}
		}
	}
}

// TestAppendBallsTouchingMatchesSqDistanceWithin pins the run kernel to the
// per-row kernel it stands in for: the same rows pass, and a passing row's
// sum of squares has the same bits — on random rows, rows exactly on the
// boundary (r + r_k equal to the distance), masked rows and every width
// around the 4-way unroll.
func TestAppendBallsTouchingMatchesSqDistanceWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12} {
		for _, rows := range []int{0, 1, 7, 200} {
			w := d + 1
			balls := make([]float64, rows*w)
			c := make([]float64, d)
			for i := range c {
				c[i] = rng.Float64()
			}
			r := 0.1 + 0.3*rng.Float64()
			for k := 0; k < rows; k++ {
				row := balls[k*w : (k+1)*w]
				for j := 0; j < d; j++ {
					row[j] = rng.Float64()
				}
				row[d] = 0.5 * rng.Float64()
				switch k % 5 {
				case 3: // exactly on the boundary, or an ulp either side
					row[d] = math.Sqrt(SqDistanceFlat(c, row[:d])) - r
					if k%2 == 0 {
						row[d] = math.Nextafter(row[d], row[d]+float64(k%3-1))
					}
				case 4:
					MaskRow(row[:d])
					row[d] = -1
				}
			}
			pos, sqs := AppendBallsTouching(balls, c, r, 100, []int32{-7}, []float64{-7})
			if pos[0] != -7 || sqs[0] != -7 || len(pos) != len(sqs) {
				t.Fatalf("d=%d rows=%d: the kernel must extend pos and sqs in step, got %v %v", d, rows, pos[:1], sqs[:1])
			}
			at := 1
			for k := 0; k < rows; k++ {
				row := balls[k*w : (k+1)*w]
				rr := r + row[d]
				sq, within := SqDistanceWithin(c, row[:d], rr*rr)
				if !within {
					continue
				}
				if at >= len(pos) || pos[at] != int32(100+k) || math.Float64bits(sqs[at]) != math.Float64bits(sq) {
					t.Fatalf("d=%d rows=%d: row %d within at sq %v, kernel reported %v / %v", d, rows, k, sq, pos[at:], sqs[at:])
				}
				at++
			}
			if at != len(pos) {
				t.Fatalf("d=%d rows=%d: kernel reported rows %v the per-row kernel rejects", d, rows, pos[at:])
			}
		}
	}
}

func TestSqDistanceToBox(t *testing.T) {
	lo := []float64{0, 0, 0}
	hi := []float64{1, 2, 3}
	cases := []struct {
		q    []float64
		want float64
	}{
		{[]float64{0.5, 1, 2}, 0},              // inside
		{[]float64{0, 2, 3}, 0},                // on a corner
		{[]float64{-1, 1, 2}, 1},               // below one axis
		{[]float64{2, 3, 5}, 1 + 1 + 4},        // above all axes
		{[]float64{-0.5, 2.5, 1}, 0.25 + 0.25}, // mixed sides
	}
	for _, tc := range cases {
		if got := SqDistanceToBox(tc.q, lo, hi); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("SqDistanceToBox(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Brute-force cross-check: the box distance is the min squared distance
	// to any point of the box, which for axis-aligned boxes is attained at
	// the per-axis clamp.
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		q := []float64{4 * rng.NormFloat64(), 4 * rng.NormFloat64(), 4 * rng.NormFloat64()}
		clamped := make([]float64, 3)
		for j := range clamped {
			clamped[j] = math.Max(lo[j], math.Min(hi[j], q[j]))
		}
		want := SqDistanceFlat(clamped, q)
		if got := SqDistanceToBox(q, lo, hi); math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("trial %d: SqDistanceToBox(%v) = %v, clamp says %v", trial, q, got, want)
		}
	}
}

func TestArgminSqDistanceTieBreaksLow(t *testing.T) {
	// Two identical rows: the scan must return the first.
	flat := []float64{1, 2, 3, 9, 9, 9, 1, 2, 3}
	idx, sq := ArgminSqDistance(flat, 3, []float64{1, 2, 3})
	if idx != 0 || sq != 0 {
		t.Errorf("tie-break: got (%d, %v), want (0, 0)", idx, sq)
	}
}

func TestArgminSqDistanceEmpty(t *testing.T) {
	idx, _ := ArgminSqDistance(nil, 4, make([]float64, 4))
	if idx != -1 {
		t.Errorf("empty matrix: got index %d, want -1", idx)
	}
}

func BenchmarkSqDistanceFlat8(b *testing.B) {
	v := make([]float64, 8)
	w := make([]float64, 8)
	for i := range v {
		v[i] = float64(i)
		w[i] = float64(i) * 1.5
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SqDistanceFlat(v, w)
	}
	_ = sink
}

func BenchmarkArgminSqDistance1000x9(b *testing.B) {
	const rows, d = 1000, 9
	flat := make([]float64, rows*d)
	rng := rand.New(rand.NewSource(1))
	for i := range flat {
		flat[i] = rng.Float64()
	}
	q := make([]float64, d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q[0] = float64(i % 17)
		if idx, _ := ArgminSqDistance(flat, d, q); idx < 0 {
			b.Fatal("no winner")
		}
	}
}

func BenchmarkArgminSeededOracle1000x9(b *testing.B) {
	const rows, d = 1000, 9
	flat := make([]float64, rows*d)
	rng := rand.New(rand.NewSource(1))
	for i := range flat {
		flat[i] = rng.Float64()
	}
	qs := make([][]float64, 64)
	seeds := make([]int, 64)
	seedSqs := make([]float64, 64)
	for t := range qs {
		q := make([]float64, d)
		for i := range q {
			q[i] = rng.Float64()
		}
		qs[t] = q
		seeds[t], seedSqs[t] = ArgminSqDistance(flat, d, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % len(qs)
		if idx, _ := ArgminSqDistanceSeeded(flat, d, qs[t], seeds[t], seedSqs[t]); idx < 0 {
			b.Fatal("no winner")
		}
	}
}

package vector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSqDistanceFlatMatchesSqDistance compares the prototype kernel with the
// exact path's sequential SqDistance, which sums in another order: the two
// agree to rounding, not to the bit.
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
			want, wantSq := bruteArgmin(flat, d, q, 0)
			if got != want || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
				t.Errorf("d=%d rows=%d: argmin %d (sq %v), want %d (sq %v)", d, rows, got, gotSq, want, wantSq)
			}
		}
	}
}

// canonicalSq is the package's one squared distance from row to q:
// SqDistanceWithin without a cutoff, which every kernel must reproduce bit
// for bit.
func canonicalSq(row, q []float64) float64 {
	s, _ := SqDistanceWithin(row, q, math.Inf(1))
	return s
}

// bruteArgmin is the reference winner over rows [lo, len(flat)/d): the
// first row strictly nearer than every earlier one under canonicalSq, or
// (-1, +Inf) when no row is at a finite distance.
func bruteArgmin(flat []float64, d int, q []float64, lo int) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for k := lo; k < len(flat)/d; k++ {
		if sq := canonicalSq(flat[k*d:(k+1)*d], q); sq < bestSq {
			best, bestSq = k, sq
		}
	}
	return best, bestSq
}

// FuzzDistanceKernels holds every prototype-search entry point of the
// package to one squared distance per pair of rows. On widths 1–13 (both
// unrolled kernels, and the generic loop on either side of each) and three
// kinds of rows — random; q plus permutations of one offset vector, which
// are equidistant in exact arithmetic, so a kernel summing in another order
// reports another distance or picks another winner; and random rows of
// which some are masked, whole or on the leading columns the way the
// prototype store tombstones a slot — each entry point must return the
// Float64bits of a brute-force scan over canonicalSq, ties to the lowest
// row.
func FuzzDistanceKernels(f *testing.F) {
	for _, w := range []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13} {
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(int64(10*w)+int64(kind), w, uint16(300), kind)
		}
	}
	f.Add(int64(1), uint8(9), uint16(0), uint8(0))
	f.Add(int64(2), uint8(6), uint16(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, rows uint16, kind uint8) {
		w, n, kind := 1+int(width)%13, int(rows)%(2*ChunkRows+50), kind%3
		rng := rand.New(rand.NewSource(seed))
		q := make([]float64, w)
		flat := make([]float64, n*w)
		switch kind {
		case 0:
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
		case 1:
			// q is integral and the offsets are 40-bit fractions, so every
			// row − q is exactly a permutation of off.
			off := make([]float64, w)
			for i := range q {
				q[i] = float64(rng.Intn(9) - 4)
				off[i] = float64(rng.Int63n(1<<40)-1<<39) / (1 << 40)
			}
			for k := 0; k < n; k++ {
				for i, j := range rng.Perm(w) {
					flat[k*w+i] = q[i] + off[j]
				}
			}
		case 2:
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			for k := 0; k < n; k++ {
				row := flat[k*w : (k+1)*w]
				for i := range row {
					row[i] = rng.NormFloat64()
				}
				switch rng.Intn(4) {
				case 0:
					MaskRow(row)
				case 1:
					if w > 1 {
						MaskRow(row[:w-1])
						row[w-1] = -1
					}
				}
			}
		}
		check := func(what string, got int, gotSq float64, want int, wantSq float64) {
			t.Helper()
			if got != want || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
				t.Fatalf("width %d, %d rows, kind %d: %s = (%d, %v), brute force (%d, %v)", w, n, kind, what, got, gotSq, want, wantSq)
			}
		}

		want, wantSq := bruteArgmin(flat, w, q, 0)
		flatSq := wantSq
		if n == 0 {
			flatSq = 0 // the flat entry points' empty-matrix result
		}
		got, gotSq := ArgminSqDistance(flat, w, q)
		check("ArgminSqDistance", got, gotSq, want, flatSq)
		got, gotSq = ArgminSqDistanceSeeded(flat, w, q, -1, math.Inf(1))
		check("ArgminSqDistanceSeeded", got, gotSq, want, flatSq)
		if n > 0 {
			// A seed row keeps its ties.
			s := rng.Intn(n)
			sSq := canonicalSq(flat[s*w:(s+1)*w], q)
			wantS, wantSSq := s, sSq
			if wantSq < sSq {
				wantS, wantSSq = want, wantSq
			}
			got, gotSq = ArgminSqDistanceSeeded(flat, w, q, s, sSq)
			check(fmt.Sprintf("ArgminSqDistanceSeeded from row %d", s), got, gotSq, wantS, wantSSq)
		}
		m := ChunkedFromFlat(flat, w)
		for _, lo := range []int{0, 1, n / 2, ChunkRows - 1, ChunkRows + 1, n} {
			if lo <= n {
				wantR, wantRSq := bruteArgmin(flat, w, q, lo)
				got, gotSq = ArgminSqDistanceChunkedRange(m, q, lo, -1, math.Inf(1))
				check(fmt.Sprintf("ArgminSqDistanceChunkedRange from row %d", lo), got, gotSq, wantR, wantRSq)
			}
		}

		cutoff := wantSq * (1 + rng.Float64())
		if math.IsInf(cutoff, 0) {
			cutoff = float64(w) * rng.Float64()
		}
		r := rng.Float64()
		balls := make([]float64, 0, n*(w+1))
		for k := 0; k < n; k++ {
			row := flat[k*w : (k+1)*w]
			sq := canonicalSq(row, q)
			if got := SqDistanceFlat(row, q); math.Float64bits(got) != math.Float64bits(sq) {
				t.Fatalf("width %d, kind %d, row %d: SqDistanceFlat = %v, brute force %v", w, kind, k, got, sq)
			}
			if got, within := SqDistanceWithin(row, q, cutoff); within != (sq <= cutoff) || within && math.Float64bits(got) != math.Float64bits(sq) {
				t.Fatalf("width %d, kind %d, row %d: SqDistanceWithin(cutoff %v) = (%v, %v), brute force %v", w, kind, k, cutoff, got, within, sq)
			}
			balls = append(append(balls, row...), rng.Float64())
		}
		pos, sqs := AppendBallsTouching(balls, q, r, 0, nil, nil)
		at := 0
		for k := 0; k < n; k++ {
			rr := r + balls[k*(w+1)+w]
			if sq := canonicalSq(flat[k*w:(k+1)*w], q); sq <= rr*rr {
				if at >= len(pos) || pos[at] != int32(k) || math.Float64bits(sqs[at]) != math.Float64bits(sq) {
					t.Fatalf("width %d, kind %d: row %d touches at sq %v, AppendBallsTouching reported %v / %v", w, kind, k, sq, pos[at:], sqs[at:])
				}
				at++
			}
		}
		if at != len(pos) {
			t.Fatalf("width %d, kind %d: AppendBallsTouching reported rows %v that do not touch", w, kind, pos[at:])
		}
	})
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

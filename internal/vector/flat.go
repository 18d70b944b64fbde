package vector

import (
	"math"
	"slices"
)

// Flat (struct-of-arrays) kernels over row-major matrices. The prototype
// store in internal/core packs all K prototypes into one contiguous
// []float64 of K rows × d columns; the kernels below scan it without
// allocating, without pointer chasing, and without taking a square root per
// candidate — the winner search of Eq. (5) only needs the argmin of the
// squared L2 distance, which is monotone in the true distance.
//
// Every kernel here that measures a row against a query sums its squares in
// one order: a single accumulator, the components in groups of four added as
// s += (d0²+d1²)+(d2²+d3²), then the remainder one term at a time. So one
// pair of rows has one squared distance, bit for bit, whichever kernel,
// width specialization or search path computed it, and a winner's distance
// is a function of the rows alone. (SqDistance, the exact path's sequential
// kernel, is not one of them.)

// SqDistanceFlat returns the squared L2 distance between two equal-length
// slices, summed in the package's one order. It is the per-row kernel of the
// prototype store and its epoch indexes, so it repeats SqDistanceWithin's
// loop without the cutoff test instead of calling it: the call and the test
// would cost it about 30 % at width 8. The sequential SqDistance may differ
// from it in the final ulps.
func SqDistanceFlat(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(dimError("SqDistanceFlat", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SqDistanceWithin computes the squared L2 distance between a and b with an
// early cutoff: it reports within=false as soon as the partial sum of
// squares (a lower bound on the full distance) exceeds cutoffSq, in which
// case the returned value is the partial sum, not the full distance. When
// within is true the returned value is the exact squared distance and it is
// at most cutoffSq.
func SqDistanceWithin(a, b []float64, cutoffSq float64) (float64, bool) {
	if len(a) != len(b) {
		panic(dimError("SqDistanceWithin", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
		if s > cutoffSq {
			return s, false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s, s <= cutoffSq
}

// AppendBallsTouching scans a row-major matrix of balls — rows [x_k..., r_k]
// of len(c)+1 values, centre then radius — and reports the ones that touch
// the ball (c, r): ‖c − x_k‖ ≤ r + r_k. For each such row it appends base+k
// to pos and the squared centre distance to sqs (the two grow in step). The
// distance is accumulated exactly as SqDistanceWithin accumulates it, and a
// row passes exactly when SqDistanceWithin(c, x_k, (r+r_k)²) reports within
// — partial sums of squares only grow, so abandoning a row mid-way and
// comparing its full sum reject the same rows — so a caller may mix the two
// freely. Unlike the per-row kernel there is no early exit to mispredict:
// every row's position and sum are stored and the length advances past the
// ones that qualify.
func AppendBallsTouching(balls, c []float64, r float64, base int32, pos []int32, sqs []float64) ([]int32, []float64) {
	d := len(c)
	w := d + 1
	if len(balls)%w != 0 {
		panic("vector: AppendBallsTouching matrix is not rows of len(c)+1")
	}
	if len(pos) != len(sqs) {
		panic("vector: AppendBallsTouching pos and sqs differ in length")
	}
	n, k := len(balls)/w, len(pos)
	pos = slices.Grow(pos, n)[:k+n]
	sqs = slices.Grow(sqs, n)[:k+n]
	for i := 0; i < n; i++ {
		row := balls[i*w : i*w+w]
		var s float64
		j := 0
		for ; j+4 <= d; j += 4 {
			d0 := c[j] - row[j]
			d1 := c[j+1] - row[j+1]
			d2 := c[j+2] - row[j+2]
			d3 := c[j+3] - row[j+3]
			s += (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
		}
		for ; j < d; j++ {
			dj := c[j] - row[j]
			s += dj * dj
		}
		rr := r + row[d]
		pos[k], sqs[k] = base+int32(i), s
		if s <= rr*rr {
			k++
		}
	}
	return pos[:k], sqs[:k]
}

// SqDistanceToBox returns the squared L2 distance from q to the axis-aligned
// box [lo, hi] — zero when q lies inside. It is the subtree lower bound of
// the k-d tree traversal: no point inside the box can be closer to q.
func SqDistanceToBox(q, lo, hi []float64) float64 {
	if len(q) != len(lo) || len(q) != len(hi) {
		panic(dimError("SqDistanceToBox", len(q), len(lo)))
	}
	var s float64
	for i, v := range q {
		// At most one of the two gaps is positive (lo ≤ hi), and adding an
		// exact zero changes nothing, so this is the sum over the violated
		// sides — without a data-dependent branch per coordinate, which a
		// tree traversal's box tests mispredict about half the time.
		d := max(lo[i]-v, v-hi[i], 0)
		s += d * d
	}
	return s
}

// ArgminSqDistance scans the row-major flat matrix (len(flat)/d rows of
// dimension d) and returns the index of the row closest to q together with
// the squared L2 distance to it, summed as SqDistanceFlat sums it. Ties are
// broken toward the lowest row index, matching a first-strictly-smaller
// linear scan. It returns (-1, 0) when the matrix is empty and (-1, +Inf)
// when no row is at a finite distance.
//
// Widths 3 and 9 (the d = 2 and d = 8 query spaces) dispatch to unrolled
// kernels; the rest take one generic loop. Both abandon a row once its
// partial sum already reaches the best: the partial sum of squares is a
// lower bound on the full squared distance, so a pruned row can never have
// won, and a row tying the best is skipped by the strict comparison either
// way — the result is identical to the plain scan.
func ArgminSqDistance(flat []float64, d int, q []float64) (int, float64) {
	return ArgminSqDistanceSeeded(flat, d, q, -1, math.Inf(1))
}

// ArgminSqDistanceSeeded is ArgminSqDistance initialized with a known
// candidate (row seedIdx at squared distance seedSq): rows whose partial sum
// already exceeds the running best are abandoned early, so a good seed —
// e.g. from a projection or spatial index — lets the scan skip most of every
// row while remaining exact. On ties with the seed the seed wins, which
// satisfies the winner contract (any index at the minimum distance).
func ArgminSqDistanceSeeded(flat []float64, d int, q []float64, seedIdx int, seedSq float64) (int, float64) {
	if d <= 0 {
		panic("vector: ArgminSqDistanceSeeded requires positive dimension")
	}
	if len(q) != d {
		panic(dimError("ArgminSqDistanceSeeded", len(q), d))
	}
	if len(flat)%d != 0 {
		panic("vector: ArgminSqDistanceSeeded flat length not a multiple of dimension")
	}
	if len(flat) == 0 {
		return -1, 0
	}
	return argminSeeded(flat, d, q, seedIdx, seedSq)
}

// argminSeeded scans every row with the running best initialized to
// (best, bestSq), dispatching to the unrolled width specializations.
// The generic loop sums as SqDistanceWithin does, pruning at the running
// best instead of a cutoff.
func argminSeeded(flat []float64, d int, q []float64, best int, bestSq float64) (int, float64) {
	switch d {
	case 3:
		return argmin3(flat, q, best, bestSq)
	case 9:
		return argmin9(flat, q, best, bestSq)
	}
	rows := len(flat) / d
	for k := 0; k < rows; k++ {
		row := flat[k*d : (k+1)*d : (k+1)*d]
		var s float64
		i := 0
		pruned := false
		for ; i+4 <= d; i += 4 {
			d0 := row[i] - q[i]
			d1 := row[i+1] - q[i+1]
			d2 := row[i+2] - q[i+2]
			d3 := row[i+3] - q[i+3]
			s += (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
			if s >= bestSq {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		for ; i < d; i++ {
			dd := row[i] - q[i]
			s += dd * dd
		}
		if s < bestSq {
			best, bestSq = k, s
		}
	}
	return best, bestSq
}

// argmin3 is the width-3 specialization ([x1, x2, θ] query spaces, the
// paper's d=2 workloads). With no group of four, the one order is
// (d0² + d1²) + d2².
func argmin3(flat, q []float64, best int, bestSq float64) (int, float64) {
	q0, q1, q2 := q[0], q[1], q[2]
	for k, base := 0, 0; base+3 <= len(flat); k, base = k+1, base+3 {
		row := flat[base : base+3 : base+3]
		d0 := row[0] - q0
		d1 := row[1] - q1
		d2 := row[2] - q2
		if sq := (d0*d0 + d1*d1) + d2*d2; sq < bestSq {
			best, bestSq = k, sq
		}
	}
	return best, bestSq
}

// argmin9 is the width-9 specialization (d=8 query spaces) with a partial-
// distance cutoff after the first group of four. The one order adds the
// second group as a whole before the last term: s + (B + C) + d8², never
// (s + B) + C.
func argmin9(flat, q []float64, best int, bestSq float64) (int, float64) {
	q0, q1, q2, q3, q4, q5, q6, q7, q8 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7], q[8]
	for k, base := 0, 0; base+9 <= len(flat); k, base = k+1, base+9 {
		row := flat[base : base+9 : base+9]
		d0 := row[0] - q0
		d1 := row[1] - q1
		d2 := row[2] - q2
		d3 := row[3] - q3
		s := (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
		if s >= bestSq {
			continue
		}
		d4 := row[4] - q4
		d5 := row[5] - q5
		d6 := row[6] - q6
		d7 := row[7] - q7
		d8 := row[8] - q8
		if sq := s + ((d4*d4 + d5*d5) + (d6*d6 + d7*d7)) + d8*d8; sq < bestSq {
			best, bestSq = k, sq
		}
	}
	return best, bestSq
}

package core

import (
	"math"
	"slices"
	"testing"

	"llmq/internal/vector"
)

// canonicalWinner is the brute-force winner of Eq. 5 over a version's live
// slots: the first live slot strictly nearer than every earlier one under
// the vector kernels' one squared distance (SqDistanceWithin without a
// cutoff), and the lowest live slot when none is at a finite distance.
func canonicalWinner(s *storeSnapshot, qflat []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for k := 0; k < s.k; k++ {
		if s.isTombstone(k) {
			continue
		}
		if sq, _ := vector.SqDistanceWithin(s.row(k), qflat, math.Inf(1)); sq < bestSq || best < 0 {
			best, bestSq = k, sq
		}
	}
	return best, bestSq
}

// TestWinnerDistanceIsCanonical holds the winner search to a function of
// the rows: on every View of every approx_golden history, View.Winner's
// distance — and, on a Case-3 query (no overlap), ScatterScan's WinnerDist,
// which the shard router compares across shards — is √ of canonicalWinner's
// squared distance, bit for bit, whichever path found the winner; a
// different slot is allowed only at exactly that distance.
//
// The golden queries reach the winner without an epoch (the bounded
// history's merged views), in revived slots, through the grid, and through
// the k-d tree's verified traversal and its bail scan (many far queries at
// d = 5 and 8 bail). Per View, queries are added beyond each appended-tail
// prototype, pointing away from the prototypes' mean, so the tail scan finds
// some winners; and one query whose squared distance to every prototype
// overflows, on which every tree traversal bails (every box is at +Inf) and
// which the lowest live slot wins at +Inf.
func TestWinnerDistanceIsCanonical(t *testing.T) {
	paths := map[string]int{}
	check := func(v View, q Query, what string) {
		t.Helper()
		s, qflat := v.s, q.Vector()
		want, wantSq := canonicalWinner(s, qflat)
		wantDist := math.Sqrt(wantSq)
		got, dist, err := v.Winner(q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got < 0 || s.isTombstone(got) || math.Float64bits(dist) != math.Float64bits(wantDist) {
			t.Fatalf("%s: Winner = (%d, %v), brute force (%d, %v)", what, got, dist, want, wantDist)
		}
		if gotSq, _ := vector.SqDistanceWithin(s.row(got), qflat, math.Inf(1)); math.Float64bits(gotSq) != math.Float64bits(wantSq) {
			t.Fatalf("%s: Winner = slot %d at squared distance %v, brute force slot %d at %v", what, got, gotSq, want, wantSq)
		}
		res, err := v.ScatterScan(q, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(res.Contribs) > 0 {
			return
		}
		if math.Float64bits(res.WinnerDist) != math.Float64bits(wantDist) {
			t.Fatalf("%s: ScatterScan WinnerDist = %v, brute force %v", what, res.WinnerDist, wantDist)
		}
		e := s.epoch
		switch {
		case e == nil:
			paths["no epoch"]++
		case got >= e.builtK:
			paths["tail"]++
		case slices.Contains(s.revived, int32(got)):
			paths["revived"]++
		case e.grid != nil:
			paths["grid"]++
		case math.IsInf(wantSq, 1):
			paths["tree bail"]++
		default:
			paths["tree"]++
		}
	}
	var last *storeSnapshot
	approxGoldenShapes(t, func(v View, gq goldenQuery, _ approxCase) {
		check(v, gq.q, gq.kind)
		if v.s == last {
			return
		}
		last = v.s
		s := v.s
		far := Query{Center: make([]float64, s.dim), Theta: 0.1}
		far.Center[0] = 1e300
		check(v, far, "overflow")
		if s.epoch == nil {
			return
		}
		mean := make([]float64, s.dim)
		for k := 0; k < s.k; k++ {
			if !s.isTombstone(k) {
				for j := range mean {
					mean[j] += s.row(k)[j] / float64(s.live)
				}
			}
		}
		for k := s.epoch.builtK; k < s.k; k++ {
			if s.isTombstone(k) {
				continue
			}
			p := s.proto(k).query()
			for j := range p.Center {
				p.Center[j] += 2 * (p.Center[j] - mean[j])
			}
			check(v, p, "beyond the tail")
		}
	})
	t.Logf("Case-3 winners by path: %v", paths)
	for _, path := range []string{"no epoch", "tail", "revived", "grid", "tree", "tree bail"} {
		if paths[path] == 0 {
			t.Errorf("no Case-3 query reached its winner by the %s path", path)
		}
	}
}

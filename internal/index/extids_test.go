package index

import (
	"math"
	"math/rand"
	"testing"

	"llmq/internal/vector"
)

// sparseRows builds a sparse slot space: nSlots chunked rows of which a
// random subset are live, the rest masked tombstones. Returns the chunked
// view, the live slot ids ascending, and the compact live matrix.
func sparseRows(rng *rand.Rand, dim, nSlots int) (vector.Chunked, []int32, []float64) {
	flat := make([]float64, nSlots*dim)
	var ids []int32
	var liveFlat []float64
	for s := 0; s < nSlots; s++ {
		row := flat[s*dim : (s+1)*dim]
		if rng.Float64() < 0.35 {
			vector.MaskRow(row)
			continue
		}
		for j := range row {
			row[j] = rng.Float64()
		}
		ids = append(ids, int32(s))
		liveFlat = append(liveFlat, row...)
	}
	return vector.ChunkedFromFlat(flat, dim), ids, liveFlat
}

// nearestRef is the reference nearest over the live slots: first strict
// minimum in ascending slot order.
func nearestRef(live vector.Chunked, ids []int32, q []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for _, id := range ids {
		if sq := vector.SqDistanceFlat(live.Row(int(id)), q); sq < bestSq {
			best, bestSq = int(id), sq
		}
	}
	return best, bestSq
}

// TestDynamicGridExternalIDs verifies NewGridFlatIDs: NearestStale and Scan
// answer in the caller's (slot) id space exactly as a linear scan over the
// live slots does — on a grid that walks its rings, and on grids whose
// cells are so small that every search takes an exact-scan fallback (the
// ring budget at dim 2, a scan-only grid at dim 3).
func TestDynamicGridExternalIDs(t *testing.T) {
	for _, dim := range []int{2, 3} {
		rng := rand.New(rand.NewSource(int64(900 + dim)))
		live, ids, liveFlat := sparseRows(rng, dim, 400)
		if len(ids) < 10 {
			t.Fatalf("dim %d: degenerate live set", dim)
		}
		for _, cell := range []float64{0.1, 1e-9} {
			g, err := NewGridFlatIDs(liveFlat, dim, cell, ids)
			if err != nil {
				t.Fatal(err)
			}
			if scanOnly := len(g.cells) == 0; scanOnly != (cell < 1e-3 && dim == 3) {
				t.Fatalf("dim %d cell %v: scan-only %v", dim, cell, scanOnly)
			}
			for trial := 0; trial < 300; trial++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = rng.Float64()*1.2 - 0.1
				}
				wantID, wantSq := nearestRef(live, ids, q)
				// slack 0 (stored rows are the live rows) and a tiny positive
				// slack (forces the live-row verification path) must agree.
				for _, slack := range []float64{0, 1e-12} {
					gotID, gotSq := g.NearestStale(q, slack, live, -1, 0)
					if gotID != wantID || gotSq != wantSq {
						t.Fatalf("dim %d cell %v slack %v: NearestStale = (%d, %v), reference = (%d, %v)",
							dim, cell, slack, gotID, gotSq, wantID, wantSq)
					}
				}
				// Without a live view the stored rows are searched, and the
				// answer is still a slot id.
				if gotID, gotSq := nearest(g, q); gotID != wantID || gotSq != wantSq {
					t.Fatalf("dim %d cell %v: nearest = (%d, %v), reference = (%d, %v)", dim, cell, gotID, gotSq, wantID, wantSq)
				}
				r := 0.05 + 0.3*rng.Float64()
				got := l2IDs(t, g, q, r)
				var want []int
				for _, id := range ids {
					if vector.DistanceLp(live.Row(int(id)), q, 2) <= r {
						want = append(want, int(id))
					}
				}
				if !sameIDs(got, want) {
					t.Fatalf("dim %d cell %v: Scan %v, want %v", dim, cell, sortedCopy(got), want)
				}
			}
		}
	}
}

// TestBulkKDTreeExternalIDs verifies NewBulkKDTreeIDs: NearestStale and
// LeafRuns report slot ids and verify against the slot-indexed live view,
// with and without drift slack, matching the linear-scan reference.
func TestBulkKDTreeExternalIDs(t *testing.T) {
	for _, dim := range []int{5, 8} {
		rng := rand.New(rand.NewSource(int64(950 + dim)))
		live, ids, liveFlat := sparseRows(rng, dim, 600)
		tr, err := NewBulkKDTreeIDs(liveFlat, dim, ids)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(ids) {
			t.Fatalf("dim %d: tree holds %d rows, want %d", dim, tr.Len(), len(ids))
		}
		var stack []int32
		for trial := 0; trial < 300; trial++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.Float64()*1.2 - 0.1
			}
			wantID, wantSq := nearestRef(live, ids, q)
			for _, slack := range []float64{0, 1e-12} {
				var gotID int
				var gotSq float64
				gotID, gotSq, stack = tr.NearestStale(q, slack, live, -1, 0, stack)
				if !sameWinner(live.Row, q, gotID, gotSq, wantID, wantSq) {
					t.Fatalf("dim %d slack %v: NearestStale = (%d, %v), reference = (%d, %v)",
						dim, slack, gotID, gotSq, wantID, wantSq)
				}
			}
			r := 0.2 + 0.4*rng.Float64()
			var runs []Span
			runs, stack = tr.LeafRuns(q, r, nil, stack)
			seen := map[int]bool{}
			for _, run := range runs {
				for _, id := range tr.IDs()[run.Start:run.End] {
					if seen[int(id)] {
						t.Fatalf("dim %d: duplicate id %d from tree LeafRuns", dim, id)
					}
					seen[int(id)] = true
				}
			}
			for _, id := range ids {
				if vector.SqDistanceFlat(live.Row(int(id)), q) <= r*r && !seen[int(id)] {
					t.Fatalf("dim %d: tree LeafRuns missing live slot %d", dim, id)
				}
			}
		}
		if _, err := NewBulkKDTreeIDs(liveFlat, dim, ids[:len(ids)-1]); err == nil {
			t.Fatal("short id table should fail")
		}
	}
}

package index

import (
	"math"
	"math/rand"
	"testing"

	"llmq/internal/vector"
)

// randRows produces n random rows of the given dimensionality in [0,1)^dim.
func randRows(rng *rand.Rand, n, dim int) []float64 {
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	return flat
}

// clusteredRows produces rows concentrated on a handful of Gaussian blobs —
// the workload shape the tree's bounding boxes prune on.
func clusteredRows(rng *rand.Rand, n, dim, clusters int, sigma float64) []float64 {
	centers := randRows(rng, clusters, dim)
	flat := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		ci := rng.Intn(clusters)
		for j := 0; j < dim; j++ {
			flat[i*dim+j] = centers[ci*dim+j] + sigma*rng.NormFloat64()
		}
	}
	return flat
}

// checkTreeInvariants asserts the structural invariants of a built tree:
// ids is a permutation of [0,n), node spans tile correctly (each internal
// node's children partition its span, leaves partition [0,n)), and every
// node's bounding box contains its rows (hence, transitively, its
// children's boxes).
func checkTreeInvariants(t *testing.T, tree *BulkKDTree, src []float64) {
	t.Helper()
	d := tree.dim
	n := tree.n
	seen := make([]bool, n)
	for _, id := range tree.ids {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("ids is not a permutation: id %d", id)
		}
		seen[id] = true
	}
	for i, id := range tree.ids {
		for j := 0; j < d; j++ {
			if tree.flat[i*d+j] != src[int(id)*d+j] {
				t.Fatalf("row %d is not source row %d", i, id)
			}
		}
	}
	if sp := tree.nodes[0]; sp.start != 0 || int(sp.end) != n {
		t.Fatalf("root span [%d,%d), want [0,%d)", sp.start, sp.end, n)
	}
	for node := range tree.nodes {
		sp := tree.nodes[node]
		if sp.start > sp.end {
			t.Fatalf("node %d span inverted: [%d,%d)", node, sp.start, sp.end)
		}
		if node < tree.leaf1 {
			l, r := tree.nodes[2*node+1], tree.nodes[2*node+2]
			if l.start != sp.start || l.end != r.start || r.end != sp.end {
				t.Fatalf("node %d children do not partition its span: [%d,%d) vs [%d,%d)+[%d,%d)",
					node, sp.start, sp.end, l.start, l.end, r.start, r.end)
			}
		} else if n > kdLeafRowsMax && int(sp.end-sp.start) > kdLeafRowsMax {
			t.Fatalf("leaf %d holds %d rows, max %d", node, sp.end-sp.start, kdLeafRowsMax)
		}
		box := tree.boxes[node*2*d : (node+1)*2*d]
		for rr := int(sp.start); rr < int(sp.end); rr++ {
			for j := 0; j < d; j++ {
				v := tree.flat[rr*d+j]
				if v < box[j] || v > box[d+j] {
					t.Fatalf("node %d box excludes its row %d axis %d: %v outside [%v,%v]",
						node, rr, j, v, box[j], box[d+j])
				}
			}
		}
	}
}

func TestBulkKDTreeBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 200, 1000} {
		for _, dim := range []int{1, 5, 9} {
			src := randRows(rng, n, dim)
			tree, err := NewBulkKDTree(src, dim)
			if err != nil {
				t.Fatal(err)
			}
			checkTreeInvariants(t, tree, src)
		}
	}
}

// bruteRange returns the sorted ids within r of q over the flat rows.
func bruteRange(flat []float64, dim int, q []float64, r float64) []int {
	var ids []int
	for i := 0; i*dim < len(flat); i++ {
		if vector.SqDistanceFlat(flat[i*dim:(i+1)*dim], q) <= r*r {
			ids = append(ids, i)
		}
	}
	return ids
}

// runIDs returns the ids stored in the spans, checking on the way that the
// spans are non-empty, ascending and disjoint, with touching leaves
// coalesced.
func runIDs(t *testing.T, tree *BulkKDTree, runs []Span) map[int]bool {
	t.Helper()
	ids := map[int]bool{}
	prevEnd := int32(-1)
	for _, run := range runs {
		if run.Start >= run.End || run.Start <= prevEnd || int(run.End) > tree.Len() {
			t.Fatalf("runs %v: span [%d,%d) after end %d of %d rows", runs, run.Start, run.End, prevEnd, tree.Len())
		}
		prevEnd = run.End
		for _, id := range tree.IDs()[run.Start:run.End] {
			ids[int(id)] = true
		}
	}
	return ids
}

// TestBulkKDTreeRangeMatchesLinear is the exactness property test of the
// tree's range query, LeafRuns: every id within r lies in a reported span,
// and the spans are exactly the leaves whose box is within the documented
// one-sided widening of r — nothing farther is scanned.
func TestBulkKDTreeRangeMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		n, dim int
		rows   []float64
	}{
		{500, 9, randRows(rng, 500, 9)},
		{1000, 9, clusteredRows(rng, 1000, 9, 20, 0.05)},
		{300, 5, randRows(rng, 300, 5)},
	} {
		tree, err := NewBulkKDTree(tc.rows, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		var stack []int32
		var runs []Span
		for trial := 0; trial < 200; trial++ {
			q := randRows(rng, 1, tc.dim)
			r := 0.4 * rng.Float64()
			runs, stack = tree.LeafRuns(q, r, runs[:0], stack)
			got := runIDs(t, tree, runs)
			for _, id := range bruteRange(tc.rows, tc.dim, q, r) {
				if !got[id] {
					t.Fatalf("n=%d trial %d: LeafRuns missed id %d within r=%v", tc.n, trial, id, r)
				}
			}
			cutoffSq := r * r
			cutoffSq += cutoffSq * rangeBoxEps
			covered := 0
			for node := tree.leaf1; node < len(tree.nodes); node++ {
				sp := tree.nodes[node]
				// A leaf is reported iff its box is within the eps widening
				// of the ball.
				want := tree.boxSqDist(node, q) <= cutoffSq
				if in := got[int(tree.ids[sp.start])]; in != want {
					t.Fatalf("n=%d trial %d: leaf %d at box sq %v reported=%v, r²=%v", tc.n, trial, node, tree.boxSqDist(node, q), in, r*r)
				}
				if want {
					covered += int(sp.end - sp.start)
				}
			}
			if len(got) != covered {
				t.Fatalf("n=%d trial %d: spans hold %d ids, touched leaves %d rows", tc.n, trial, len(got), covered)
			}
		}
		if runs, _ = tree.LeafRuns(randRows(rng, 1, tc.dim), math.NaN(), runs[:0], stack); len(runs) != 0 {
			t.Fatalf("NaN radius reported %v", runs)
		}
		if runs, _ = tree.LeafRuns(randRows(rng, 1, tc.dim), -1, runs[:0], stack); len(runs) != 0 {
			t.Fatalf("negative radius reported %v", runs)
		}
		if runs, _ = tree.LeafRuns(randRows(rng, 1, tc.dim), 1e9, runs[:0], stack); len(runs) != 1 || runs[0] != (Span{0, int32(tc.n)}) {
			t.Fatalf("space-covering radius reported %v, want one span of %d rows", runs, tc.n)
		}
	}
}

// sameWinner reports whether (got, gotSq) is the brute-force winner (want,
// wantSq): the squared distance to the bit, and the same row unless row got
// is at exactly that distance too — an exact tie, which the tree breaks in
// leaf order and the scans toward the lowest id.
func sameWinner(row func(int) []float64, q []float64, got int, gotSq float64, want int, wantSq float64) bool {
	if math.Float64bits(gotSq) != math.Float64bits(wantSq) {
		return false
	}
	return got == want || got >= 0 && math.Float64bits(vector.SqDistanceFlat(row(got), q)) == math.Float64bits(wantSq)
}

// flatRow is the row accessor of a flat matrix, for sameWinner.
func flatRow(flat []float64, dim int) func(int) []float64 {
	return func(i int) []float64 { return flat[i*dim : (i+1)*dim] }
}

// bruteNearest returns the linear-scan argmin (lowest id on ties) and the
// squared distance, over the flat rows.
func bruteNearest(flat []float64, dim int, q []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for i := 0; i*dim < len(flat); i++ {
		if sq := vector.SqDistanceFlat(flat[i*dim:(i+1)*dim], q); sq < bestSq {
			best, bestSq = i, sq
		}
	}
	return best, bestSq
}

// TestBulkKDTreeNearestStaleMatchesLinear covers all three staleness
// regimes of NearestStale: stored rows are the live rows (zero Chunked, no
// slack), live rows drifted within a slack budget, and a seeded search
// (the caller's un-indexed tail candidate). In every case the returned
// distance must have the bits of the brute-force scan's over the live rows.
func TestBulkKDTreeNearestStaleMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{5, 9} {
		const n = 800
		src := clusteredRows(rng, n, dim, 25, 0.04)
		tree, err := NewBulkKDTree(src, dim)
		if err != nil {
			t.Fatal(err)
		}
		// Drift every live row by at most slack from its stale position.
		const slack = 0.03
		drifted := append([]float64(nil), src...)
		for i := 0; i < n; i++ {
			norm := 0.0
			delta := make([]float64, dim)
			for j := range delta {
				delta[j] = rng.NormFloat64()
				norm += delta[j] * delta[j]
			}
			scale := slack * rng.Float64() / math.Sqrt(norm)
			for j := range delta {
				drifted[i*dim+j] += scale * delta[j]
			}
		}
		live := vector.ChunkedFromFlat(drifted, dim)
		var stack []int32
		for trial := 0; trial < 300; trial++ {
			q := randRows(rng, 1, dim)
			// Stale == live.
			var gotSq float64
			var got int
			got, gotSq, stack = tree.NearestStale(q, 0, vector.Chunked{}, -1, 0, stack)
			want, wantSq := bruteNearest(src, dim, q)
			if !sameWinner(flatRow(src, dim), q, got, gotSq, want, wantSq) {
				t.Fatalf("dim %d trial %d stale==live: got (%d, %v), want (%d, %v)", dim, trial, got, gotSq, want, wantSq)
			}
			// Drifted live rows under the slack budget.
			got, gotSq, stack = tree.NearestStale(q, slack, live, -1, 0, stack)
			want, wantSq = bruteNearest(drifted, dim, q)
			if !sameWinner(live.Row, q, got, gotSq, want, wantSq) {
				t.Fatalf("dim %d trial %d drifted: got (%d, %v), want (%d, %v)", dim, trial, got, gotSq, want, wantSq)
			}
			// Seeded with a random live candidate (the tail-scan contract).
			seed := rng.Intn(n)
			seedSq := vector.SqDistanceFlat(live.Row(seed), q)
			got, gotSq, stack = tree.NearestStale(q, slack, live, seed, seedSq, stack)
			if !sameWinner(live.Row, q, got, gotSq, want, wantSq) {
				t.Fatalf("dim %d trial %d seeded: got (%d, %v), want (%d, %v)", dim, trial, got, gotSq, want, wantSq)
			}
		}
	}
}

// TestBulkKDTreeBailMatchesLinear forces the traversal's scan-budget bail —
// the "no locality" fallback — both artificially (budget shrunk to zero, so
// the first leaf trips it) and naturally (points near-equidistant from the
// query, which no box can prune), and asserts the answer still matches the
// linear scan exactly.
func TestBulkKDTreeBailMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, dim = 600, 9
	src := randRows(rng, n, dim)
	live := vector.ChunkedFromFlat(src, dim)

	forced, err := NewBulkKDTree(src, dim)
	if err != nil {
		t.Fatal(err)
	}
	forced.bailRows = 0 // any leaf visit exceeds the budget
	var stack []int32
	for trial := 0; trial < 200; trial++ {
		q := randRows(rng, 1, dim)
		want, wantSq := bruteNearest(src, dim, q)
		var got int
		var gotSq float64
		got, gotSq, stack = forced.NearestStale(q, 0, vector.Chunked{}, -1, 0, stack)
		if !sameWinner(flatRow(src, dim), q, got, gotSq, want, wantSq) {
			t.Fatalf("trial %d forced bail (stale==live): got (%d, %v), want (%d, %v)", trial, got, gotSq, want, wantSq)
		}
		got, gotSq, stack = forced.NearestStale(q, 0.01, live, -1, 0, stack)
		if !sameWinner(live.Row, q, got, gotSq, want, wantSq) {
			t.Fatalf("trial %d forced bail (live): got (%d, %v), want (%d, %v)", trial, got, gotSq, want, wantSq)
		}
	}

	// Natural trip: points on a sphere around the query are equidistant, so
	// every box lower bound ties the best and nothing prunes.
	sphere := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		norm := 0.0
		for j := 0; j < dim; j++ {
			sphere[i*dim+j] = rng.NormFloat64()
			norm += sphere[i*dim+j] * sphere[i*dim+j]
		}
		scale := (0.5 + 1e-6*rng.Float64()) / math.Sqrt(norm)
		for j := 0; j < dim; j++ {
			sphere[i*dim+j] = 0.5 + scale*sphere[i*dim+j]
		}
	}
	natural, err := NewBulkKDTree(sphere, dim)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, dim)
	for j := range q {
		q[j] = 0.5
	}
	want, wantSq := bruteNearest(sphere, dim, q)
	got, gotSq, _ := natural.NearestStale(q, 0, vector.Chunked{}, -1, 0, stack)
	if !sameWinner(flatRow(sphere, dim), q, got, gotSq, want, wantSq) {
		t.Fatalf("natural bail: got (%d, %v), want (%d, %v)", got, gotSq, want, wantSq)
	}
}

// FuzzBulkKDTree fuzzes the build/traverse invariants: arbitrary point
// sets (derived from the fuzz bytes) must build a structurally sound tree
// whose LeafRuns and NearestStale agree with the linear scan.
func FuzzBulkKDTree(f *testing.F) {
	f.Add(int64(1), 10, 3, 0.2)
	f.Add(int64(2), 200, 9, 0.05)
	f.Add(int64(3), 65, 5, 1.5)
	f.Add(int64(4), 1, 1, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n, dim int, r float64) {
		if n <= 0 || n > 2000 || dim <= 0 || dim > 12 {
			t.Skip()
		}
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 1e6 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		// Mix uniform coordinates with duplicated rows and constant axes —
		// the degenerate shapes a median split must survive.
		src := randRows(rng, n, dim)
		for i := 0; i < n/4; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			copy(src[a*dim:(a+1)*dim], src[b*dim:(b+1)*dim])
		}
		if dim > 1 {
			ax := rng.Intn(dim)
			for i := 0; i < n; i++ {
				src[i*dim+ax] = 0.25
			}
		}
		tree, err := NewBulkKDTree(src, dim)
		if err != nil {
			t.Fatal(err)
		}
		checkTreeInvariants(t, tree, src)
		q := randRows(rng, 1, dim)
		var stack []int32
		var runs []Span
		runs, stack = tree.LeafRuns(q, r, runs, stack)
		member := runIDs(t, tree, runs)
		for _, id := range bruteRange(src, dim, q, r) {
			if !member[id] {
				t.Fatalf("LeafRuns missed id %d", id)
			}
		}
		wantIdx, wantSq := bruteNearest(src, dim, q)
		gotIdx, gotSq, _ := tree.NearestStale(q, 0, vector.Chunked{}, -1, 0, stack)
		if !sameWinner(flatRow(src, dim), q, gotIdx, gotSq, wantIdx, wantSq) {
			t.Fatalf("NearestStale (%d, %v), linear scan (%d, %v)", gotIdx, gotSq, wantIdx, wantSq)
		}
	})
}

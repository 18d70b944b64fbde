package index

import (
	"fmt"
	"math"

	"llmq/internal/vector"
)

// BulkKDTree is a bulk-built k-d tree over a frozen copy of a point set —
// the wide-query-space read epoch of the prototype store, where the 1-D
// projection spine used to live. It is built once over the stale row copy at
// epoch-rebuild time and never mutated, so the store and every published
// snapshot share it without synchronization, exactly like the Grid epoch
// on narrow spaces.
//
// Layout is implicit and flat: the tree is a perfect binary tree of
// kdLeaves leaves, nodes stored in one array in heap order (node i's
// children are 2i+1 and 2i+2 — no per-node pointers), each node covering a
// contiguous row span of the reordered point matrix. Leaves hold
// ~kdLeafRowsMax/2..kdLeafRowsMax rows stored contiguously in build order,
// so a leaf scan is one pass of the vector kernels with the
// partial-distance cutoff over flat memory. Every node carries its exact
// bounding box (computed bottom-up at build time); the traversal lower-
// bounds a subtree by the squared distance from the query to that box,
// which prunes far tighter in wide spaces than any single split plane.
//
// Build is a median split: at each internal node the rows are partitioned
// around their median along the axis of maximum spread (quickselect — no
// full sort), giving an O(n log n) bulk build and leaves balanced to ±1 row.
//
// The epoch operations are NearestStale (winner seeding, Eq. 5), mirroring
// Grid's, and LeafRuns (overlap radius query, Eq. 10), which only
// prunes: it reports the leaf-order spans the query ball touches, and the
// caller tests their rows itself through Rows/IDs — the prototype store
// keeps its coefficient rows in the same position order, so one pass over a
// span has everything the fusion needs. The rows are a stale snapshot;
// callers that let the live rows drift widen every bound by a slack, so
// exactness is never a function of staleness. The traversal stack is the
// caller's (the prediction scratch pool): the hot path allocates nothing.
type BulkKDTree struct {
	dim   int
	n     int
	leaf1 int      // index of the first leaf node (= kdLeaves-1)
	nodes []kdSpan // implicit heap, len = 2*kdLeaves-1
	boxes []float64
	flat  []float64 // n rows × dim, reordered leaf-contiguously
	ids   []int32   // flat row → original point id

	// bailRows is the traversal's scan budget: once NearestStale has
	// verified this many leaf rows the tree is evidently not pruning (a
	// workload without locality — e.g. near-equidistant points in a wide
	// space), and the search finishes with one seeded flat scan over the
	// live rows instead. The distance is identical either way, bit for bit:
	// the leaf verification and the flat scan sum a row in the vector
	// kernels' one order (only an exact tie may go to another row). The
	// budget only bounds the worst case at ~1.5× the scan it falls back to.
	// Tests force the bail by shrinking it.
	bailRows int
}

// kdSpan is one node's row range [start, end) in the reordered matrix.
type kdSpan struct{ start, end int32 }

// Span is a run of positions [Start, End) of the leaf-ordered matrix, as
// LeafRuns reports them: one leaf's rows, or several neighbouring leaves'.
type Span struct{ Start, End int32 }

const (
	// kdLeafRowsMax bounds the rows per leaf; the leaf count is the smallest
	// power of two that respects it, which (with balanced median splits)
	// keeps every leaf in the 32..64 band for trees of more than one leaf —
	// large enough that the row kernels amortize the per-node box
	// arithmetic, small enough that a leaf stays within a few cache lines.
	kdLeafRowsMax = 64
)

// NewBulkKDTreeIDs is NewBulkKDTree for a matrix whose rows live in a
// caller-defined id space: searches report row i of flat under ids[i]
// instead of i, and NearestStale's live-row verification reads
// live.Row(ids[i]). Only tests use it. ids is read, not retained.
func NewBulkKDTreeIDs(flat []float64, dim int, ids []int32) (*BulkKDTree, error) {
	t, err := NewBulkKDTree(flat, dim)
	if err != nil {
		return nil, err
	}
	if len(ids) != t.n {
		return nil, fmt.Errorf("%w: %d ids for %d rows", ErrDimension, len(ids), t.n)
	}
	for i, id := range t.ids {
		t.ids[i] = ids[int(id)]
	}
	return t, nil
}

// NewBulkKDTree bulk-builds a tree over the rows of the flat row-major
// matrix (len(flat)/dim points). The input is read, not retained: the tree
// gathers the rows into its own leaf-contiguous buffer.
func NewBulkKDTree(flat []float64, dim int) (*BulkKDTree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dimension %d", ErrDimension, dim)
	}
	if len(flat)%dim != 0 {
		return nil, fmt.Errorf("%w: flat length %d not a multiple of dim %d", ErrDimension, len(flat), dim)
	}
	n := len(flat) / dim
	if n == 0 {
		return nil, ErrEmpty
	}
	leaves := 1
	for n > leaves*kdLeafRowsMax {
		leaves <<= 1
	}
	t := &BulkKDTree{
		dim:      dim,
		n:        n,
		leaf1:    leaves - 1,
		nodes:    make([]kdSpan, 2*leaves-1),
		boxes:    make([]float64, (2*leaves-1)*2*dim),
		ids:      make([]int32, n),
		bailRows: n/2 + 32,
	}
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	t.buildNode(flat, 0, 0, n)
	// Gather the rows into build order: each leaf's rows end up contiguous,
	// in the order the median splits left them.
	t.flat = make([]float64, n*dim)
	for i, id := range t.ids {
		copy(t.flat[i*dim:(i+1)*dim], flat[int(id)*dim:(int(id)+1)*dim])
	}
	t.computeBoxes()
	return t, nil
}

// Len returns the number of indexed points.
func (t *BulkKDTree) Len() int { return t.n }

// Dim returns the dimensionality of the indexed points.
func (t *BulkKDTree) Dim() int { return t.dim }

// buildNode assigns node's row span and recursively median-splits it. The
// recursion depth is the tree height (≤ ~20 for any realistic point count).
func (t *BulkKDTree) buildNode(src []float64, node, lo, hi int) {
	t.nodes[node] = kdSpan{start: int32(lo), end: int32(hi)}
	if node >= t.leaf1 {
		return
	}
	mid := (lo + hi) / 2
	axis := t.maxSpreadAxis(src, lo, hi)
	kdSelect(src, t.dim, axis, t.ids, lo, hi, mid)
	t.buildNode(src, 2*node+1, lo, mid)
	t.buildNode(src, 2*node+2, mid, hi)
}

// maxSpreadAxis returns the axis with the widest value range over rows
// [lo, hi) — the classic bulk-build split heuristic, which adapts the tree
// to clustered prototype sets instead of cycling axes blindly.
func (t *BulkKDTree) maxSpreadAxis(src []float64, lo, hi int) int {
	axis, spread := 0, -1.0
	for j := 0; j < t.dim; j++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			v := src[int(t.ids[i])*t.dim+j]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if s := mx - mn; s > spread {
			axis, spread = j, s
		}
	}
	return axis
}

// kdSelect partially sorts ids[lo:hi] so that rows [lo, mid) are ≤ rows
// [mid, hi) along the axis — quickselect with Hoare partitioning, O(n)
// expected, no allocation.
func kdSelect(src []float64, dim, axis int, ids []int32, lo, hi, mid int) {
	key := func(i int) float64 { return src[int(ids[i])*dim+axis] }
	for hi-lo > 1 {
		pivot := key((lo + hi) / 2)
		i, j := lo, hi-1
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				ids[i], ids[j] = ids[j], ids[i]
				i++
				j--
			}
		}
		// rows [lo, j] ≤ pivot, rows [i, hi) ≥ pivot, rows (j, i) == pivot.
		switch {
		case mid <= j:
			hi = j + 1
		case mid >= i:
			lo = i
		default:
			return
		}
	}
}

// computeBoxes fills every node's bounding box: leaves from their rows,
// internal nodes as the union of their children, walking the heap array
// backwards (children always have larger indices than their parent).
func (t *BulkKDTree) computeBoxes() {
	d := t.dim
	for node := len(t.nodes) - 1; node >= 0; node-- {
		b := t.boxes[node*2*d : (node+1)*2*d]
		lo, hi := b[:d], b[d:]
		if node >= t.leaf1 {
			sp := t.nodes[node]
			for j := 0; j < d; j++ {
				lo[j], hi[j] = math.Inf(1), math.Inf(-1)
			}
			for r := int(sp.start); r < int(sp.end); r++ {
				row := t.flat[r*d : (r+1)*d]
				for j, v := range row {
					if v < lo[j] {
						lo[j] = v
					}
					if v > hi[j] {
						hi[j] = v
					}
				}
			}
			continue
		}
		l := t.boxes[(2*node+1)*2*d : (2*node+2)*2*d]
		r := t.boxes[(2*node+2)*2*d : (2*node+3)*2*d]
		for j := 0; j < d; j++ {
			lo[j] = math.Min(l[j], r[j])
			hi[j] = math.Max(l[d+j], r[d+j])
		}
	}
}

// boxSqDist returns the squared distance from q to node's bounding box.
func (t *BulkKDTree) boxSqDist(node int, q []float64) float64 {
	b := t.boxes[node*2*t.dim:]
	return vector.SqDistanceToBox(q, b[:t.dim], b[t.dim:2*t.dim])
}

// NearestStale returns the exact nearest point over the live rows when the
// tree's stored rows are a stale snapshot of them, mirroring
// Grid.NearestStale. live is the current point matrix as a chunked
// view indexed by the same ids as the tree (extra tail rows are the
// caller's to seed); the zero Chunked means the stored rows ARE the live
// rows. slack bounds how far any point has moved since the build: a subtree
// is pruned only when even its stale box minus the slack cannot beat the
// best live candidate, and every surviving stale candidate is verified
// against its live row, so drift widens the search but never hides the true
// winner. seed (id at squared live distance seedSq; seed < 0 for none)
// initializes the running best — the caller typically seeds with the argmin
// of the un-indexed tail.
//
// stack is the traversal's scratch (reused across calls via the caller's
// scratch pool; pass nil to let it allocate once); the possibly-grown stack
// is returned for the caller to retain. When the traversal's scan budget
// trips (no locality to prune on) the search finishes with one seeded flat
// scan — see bailRows.
func (t *BulkKDTree) NearestStale(q []float64, slack float64, live vector.Chunked, seed int, seedSq float64, stack []int32) (int, float64, []int32) {
	if len(q) != t.dim {
		panic(fmt.Sprintf("index: NearestStale query dim %d, index dim %d", len(q), t.dim))
	}
	staleIsLive := live.IsZero()
	best, bestSq := seed, seedSq
	if seed < 0 {
		best, bestSq = -1, math.Inf(1)
	}
	// cutoffSq is the stale-distance bound a candidate must meet to possibly
	// win: (bestDist + slack)². It shrinks whenever the best improves.
	cutoff := math.Sqrt(bestSq) + slack
	cutoffSq := cutoff * cutoff
	budget := t.bailRows
	d := t.dim
	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		node := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		// Re-check at pop: the cutoff may have shrunk since the push.
		if t.boxSqDist(node, q) > cutoffSq {
			continue
		}
		if node < t.leaf1 {
			c1, c2 := 2*node+1, 2*node+2
			d1, d2 := t.boxSqDist(c1, q), t.boxSqDist(c2, q)
			// Push the farther child first so the nearer is explored first —
			// the sooner the best tightens, the more the far side prunes.
			if d1 > d2 {
				c1, c2, d1, d2 = c2, c1, d2, d1
			}
			if d2 <= cutoffSq {
				stack = append(stack, int32(c2))
			}
			if d1 <= cutoffSq {
				stack = append(stack, int32(c1))
			}
			continue
		}
		sp := t.nodes[node]
		span := t.flat[int(sp.start)*d : int(sp.end)*d]
		budget -= int(sp.end - sp.start)
		if staleIsLive {
			// The stored rows are the live rows: the leaf scan is the whole
			// verification, one argmin pass over the span.
			if li, lsq := vector.ArgminSqDistanceSeeded(span, d, q, -1, bestSq); li >= 0 {
				best, bestSq = int(t.ids[int(sp.start)+li]), lsq
				cutoff = math.Sqrt(bestSq) + slack
				cutoffSq = cutoff * cutoff
			}
		} else {
			for r := int(sp.start); r < int(sp.end); r++ {
				if _, within := vector.SqDistanceWithin(t.flat[r*d:(r+1)*d], q, cutoffSq); !within {
					continue
				}
				id := int(t.ids[r])
				if sq := vector.SqDistanceFlat(live.Row(id), q); sq < bestSq || (sq == bestSq && id < best) {
					best, bestSq = id, sq
					cutoff = math.Sqrt(bestSq) + slack
					cutoffSq = cutoff * cutoff
				}
			}
		}
		if budget < 0 {
			// The boxes are not pruning (near-equidistant points): finish
			// with one exact seeded scan instead of walking every leaf.
			if staleIsLive {
				if li, lsq := vector.ArgminSqDistanceSeeded(t.flat, d, q, -1, bestSq); li >= 0 {
					best, bestSq = int(t.ids[li]), lsq
				}
				return best, bestSq, stack
			}
			best, bestSq = vector.ArgminSqDistanceChunkedRange(live, q, 0, best, bestSq)
			return best, bestSq, stack
		}
	}
	return best, bestSq, stack
}

// rangeBoxEps widens LeafRuns' cutoff by a relative margin so a point
// sitting exactly on the query ball's boundary can never lose its leaf to
// floating-point rounding of the box distance. LeafRuns only prunes; callers
// test the precise predicate they care about, so the margin only ever adds
// rows to test.
const rangeBoxEps = 1e-9

// Rows returns the point matrix in leaf order (Len() rows of Dim() values,
// each leaf's rows contiguous): the tree's own storage, read-only.
func (t *BulkKDTree) Rows() []float64 { return t.flat }

// IDs returns the id of the point stored at each position of Rows.
func (t *BulkKDTree) IDs() []int32 { return t.ids }

// LeafRuns appends to runs the spans of every leaf whose bounding box lies
// within L2 distance r of q — every point whose stored (stale) position is
// within r of q is in one of them — for the caller to test in one pass over
// contiguous rows. The cutoff is widened one-sidedly by rangeBoxEps so
// boundary rounding can only ever add a leaf; callers searching a drifted
// snapshot widen r by their slack. Spans come out in ascending position
// order, neighbouring leaves coalesced, no position twice; a negative or
// NaN r reports nothing. stack follows the NearestStale contract.
func (t *BulkKDTree) LeafRuns(q []float64, r float64, runs []Span, stack []int32) ([]Span, []int32) {
	if len(q) != t.dim {
		panic(fmt.Sprintf("index: LeafRuns query dim %d, index dim %d", len(q), t.dim))
	}
	if r < 0 || math.IsNaN(r) {
		return runs, stack
	}
	cutoffSq := r * r
	cutoffSq += cutoffSq * rangeBoxEps
	stack = append(stack[:0], 0)
	for len(stack) > 0 {
		node := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if t.boxSqDist(node, q) > cutoffSq {
			continue
		}
		if node < t.leaf1 {
			// Right child first: the left pops first, spans stay in order.
			stack = append(stack, int32(2*node+2), int32(2*node+1))
			continue
		}
		sp := t.nodes[node]
		if n := len(runs); n > 0 && runs[n-1].End == sp.start {
			runs[n-1].End = sp.end
		} else {
			runs = append(runs, Span{Start: sp.start, End: sp.end})
		}
	}
	return runs, stack
}

package index

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"llmq/internal/vector"
)

// ScanCheckRows bounds how many candidate points Grid.Scan tests or appends
// between two looks at its context: often enough that an abandoned scan over
// a large subspace stops within microseconds, rarely enough that the check
// is invisible in the per-point cost. The points of a cell decided whole
// from its bounding box count as they are appended; the points of a cell the
// box rules out are not looked at and do not count.
const ScanCheckRows = 4096

// Grid is a uniform grid (cell) index stored clustered: the points are
// copied once, grouped by cell and in ascending row id inside a cell, into
// one flat row-major array, so a cell is a contiguous run of positions in
// that array and a radius query reads memory once, front to back per cell.
// A radius query inspects only the cells overlapping the query ball's
// bounding box; it is most effective when the radius is of the order of the
// cell size, the regime of the paper's workloads (θ ≈ a tenth of each
// attribute range).
//
// The visit order is a contract, because the exact executors sum in it and
// floating-point sums depend on their order: a query whose bounding box
// covers no more cells than the grid has points visits the box's cells as an
// odometer with dimension 0 turning fastest and, inside a cell, ascending row
// ids; any wider query scans every point in row order. The box that decides
// between the two is the unclamped one — cells outside the data count — so
// where a query sits relative to the data does not change its order.
//
// Pruning by the bounding box presumes a point's computed distance is no
// smaller than its distance along any one axis. vector.DistanceLp keeps that
// for p = 1, 2 and ∞ unless a power underflows to zero; for other p its
// math.Pow round trip can come out an ulp short, so a point that far outside
// a box-aligned ball may be one a brute-force scan reports and the grid does
// not.
//
// Under L2 the walk decides a point by its squared distance s, summed
// d₀² + d₁² + … in index order as vector.DistanceLp sums it, against T, the
// largest float64 whose math.Sqrt is at most the radius (sqThreshold):
// math.Sqrt is correctly rounded and hence monotone, so on s ≥ 0 the test
// s ≤ T selects exactly the points math.Sqrt(s) ≤ radius selects. It also
// decides whole cells: every cell of at least boxMinPoints points keeps the
// bounding box of its stored points, and the same subtractions, squares and
// sums taken at the box's faces bound every stored point's s from above and
// below (each of those rounded operations is monotone, so no epsilon is
// needed). A cell whose upper bound passes T is appended as one run, a cell
// whose lower bound fails it is skipped, and only the rest — and the cells
// too small to keep a box — are tested point by point. The selected
// positions and their order are those of the per-point test.
//
// Cells are found through an open-addressing table keyed by the linear cell
// number Σ coord[j]·stride[j], which works however sparse the grid is (d = 8
// at a tenth of the span is 10⁸ cells for a few thousand occupied ones). A
// grid whose cell numbers do not fit 63 bits, or whose points are not all
// finite, keeps no table and answers every query by the row-order scan. A
// Grid is immutable after construction and safe for concurrent use; Merge
// builds the next one from it without writing it.
//
// Besides radius queries the grid answers NearestStale, the nearest-point
// search of the prototype store's read epoch (the winner of Eq. 5), by
// walking rings of cells outward from the query's cell, each clipped to the
// cells a better point can lie in.
type Grid struct {
	dim      int
	cellSize float64
	origin   []float64 // per-dimension minimum of the points the geometry was fixed from
	extent   []int     // cells per dimension: cell coordinates lie in [0, extent[j])
	stride   []uint64  // linear cell number = Σ coord[j]·stride[j]
	hi       []float64 // per-dimension maximum of the stored points

	pts  []float64 // clustered coordinates, row-major: position k is pts[k*dim:(k+1)*dim]
	ids  []int32   // clustered position → row id (the caller's id under NewGridFlatIDs)
	rank []int32   // row id → clustered position, −1 for an id the grid does not hold

	directory // the occupied cells; none for a scan-only grid
	// The occupied cells in linear-number order — the order of their runs —
	// and where each run ends: the directory in the order Merge walks it.
	runKeys []uint64
	runEnds []int32
	// The cells of at least boxMinPoints points are boxed: boxStarts holds
	// their first positions, ascending, and boxes, in the same order, their
	// points' per-dimension minima, then maxima.
	boxStarts []int32
	boxes     []float64
}

// boxMinPoints is the fewest points a cell must hold to keep a bounding box.
// Bounding a smaller cell costs about as much as testing its points, and the
// boxes of the read epoch's sparse cells (two or three prototypes each) would
// add a third to every rebuild's allocation.
const boxMinPoints = 8

// gridCell is one directory slot: the occupied cell's linear number and its
// run of clustered positions [start, end).
type gridCell struct {
	key        uint64
	start, end int32
}

// directory is an open-addressing table of occupied cells keyed by linear
// cell number: a grid's directory, and a build chunk's count of its points
// per cell.
type directory struct {
	cells []gridCell // len is a power of two
	shift uint       // 64 − log2(len(cells))
}

// minParallelPoints is the fewest points a grid build splits across cores:
// below it the goroutines cost more than the passes they would share.
const minParallelPoints = 1 << 15

// buildProcs returns how many chunks a build over n points splits into.
func buildProcs(n int) int {
	if n < minParallelPoints {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// chunks runs f(s, c, lo, hi) over k = min(procs, n) contiguous chunks of
// [0, n), chunk c being [n·c/k, n·(c+1)/k), each but the first on a
// goroutine of its own, and returns once all of them have. s carries what
// the chunks share and f is a method expression, so a build that runs as
// one chunk allocates nothing for it.
func chunks[S any](s S, n, procs int, f func(s S, c, lo, hi int)) {
	k := min(procs, n)
	if k <= 1 {
		f(s, 0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go func() {
			defer wg.Done()
			f(s, c, n*c/k, n*(c+1)/k)
		}()
	}
	f(s, 0, 0, n/k)
	wg.Wait()
}

// noCell marks an empty directory slot; linear cell numbers stay below 2⁶³.
const noCell = math.MaxUint64

// NewGrid builds a grid index with the given cell size (> 0) over the given
// points, which are copied.
func NewGrid(pts [][]float64, cellSize float64) (*Grid, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	dim := len(pts[0])
	rows := make([]float64, 0, len(pts)*dim)
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimension, i, len(p), dim)
		}
		rows = append(rows, p...)
	}
	return NewGridFlat(rows, dim, cellSize)
}

// NewGridFlat is NewGrid over row-major input: point i is
// rows[i*dim:(i+1)*dim], dim >= 1. It is how the exact executor indexes a
// columnar table without materializing one slice per row. rows is read, not
// retained.
//
// Construction fixes the geometry from the points' extent, then clusters
// them: one pass numbers every point's cell and counts the cells, and one
// stable counting pass copies the points into cell order. A last pass reads
// the clustered points once to record the bounding box of every cell of at
// least boxMinPoints points. From 2¹⁵ points on, each pass runs on
// GOMAXPROCS contiguous chunks of the rows (the boxes on chunks of the
// runs), and the result is the one-core build's bit for bit: the chunks'
// extents merge in row order under the same strict comparisons, each chunk
// counts its cells apart, and a prefix sum over (cell, chunk) gives every
// chunk its own stretch of each cell, in row order, so a cell still lists
// its points in ascending row id. Merge is the other way to a grid: from
// the last one, at its geometry.
func NewGridFlat(rows []float64, dim int, cellSize float64) (*Grid, error) {
	return newGridFlat(rows, dim, cellSize, nil, buildProcs(len(rows)/max(dim, 1)))
}

// NewGridFlatIDs is NewGridFlat for points that live in a caller-defined id
// space, mirroring NewBulkKDTreeIDs: point i is reported under ids[i]
// instead of i, and NearestStale's live-row verification reads
// live.Row(ids[i]). Only tests use it. ids is read, not retained; they must
// be distinct and non-negative, and Positions keeps one entry per id up to
// the largest. Ascending ids keep the visit order inside a cell, and the
// row-order scan, ascending in id.
func NewGridFlatIDs(rows []float64, dim int, cellSize float64, ids []int32) (*Grid, error) {
	if ids == nil {
		ids = []int32{} // numbered by the caller, not 0..n−1
	}
	return newGridFlat(rows, dim, cellSize, ids, buildProcs(len(rows)/max(dim, 1)))
}

// newGridFlat is both constructors, split into procs chunks; nil ids number
// the points 0..n−1.
func newGridFlat(rows []float64, dim int, cellSize float64, ids []int32, procs int) (*Grid, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	if dim < 1 || len(rows)%dim != 0 {
		return nil, fmt.Errorf("%w: %d values are not points of dim %d", ErrDimension, len(rows), dim)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("index: invalid cell size %v", cellSize)
	}
	n := len(rows) / dim
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d points exceed the grid's 2^31-1 positions", n)
	}
	if ids != nil && len(ids) != n {
		return nil, fmt.Errorf("%w: %d ids for %d points", ErrDimension, len(ids), n)
	}
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("%w: negative id %d", ErrDimension, id)
		}
	}
	g := &Grid{dim: dim, cellSize: cellSize}
	if b := newGridBuild(g, rows, procs); !b.fixGeometry() || !b.cluster(ids) {
		// Scan-only: the points in input order, no directory.
		g.pts, g.ids, g.rank = slices.Clone(rows), make([]int32, n), make([]int32, n)
		for i := range g.ids {
			g.ids[i], g.rank[i] = int32(i), int32(i)
		}
		if ids != nil {
			g.renumber(ids)
		}
		g.directory = directory{}
	}
	return g, nil
}

// newRank allocates the id → position map of a grid of n points numbered
// by ids (0..n−1 when nil): one entry per id up to the largest, each −1
// (absent) until a position is stored, when ids leave holes.
func newRank(n int, ids []int32) []int32 {
	if ids == nil {
		return make([]int32, n)
	}
	rank := make([]int32, slices.Max(ids)+1)
	if len(rank) > n {
		for i := range rank {
			rank[i] = -1
		}
	}
	return rank
}

// gridBuild is what the chunks of one build share: chunk c writes only
// parts[c], its own rows' slots and rank entries, and the positions the
// prefix sum gives it in ids and pts.
type gridBuild struct {
	g     *Grid
	rows  []float64
	slots []uint64 // each row's cell: its slot in its chunk's directory
	size  uint64   // the most cells the rows can occupy
	parts []buildPart
}

// buildPart is one chunk's share of a build.
type buildPart struct {
	lo, hi   []float64 // the extent of its rows; chunk 0's is the grid's origin and hi
	dir      directory // its points per cell, then its fill cursor in each; chunk 0 uses the grid's
	occupied []uint64  // its cells, in the order it first meets them
	outside  bool      // one of its rows lies in no cell
}

// newGridBuild splits a build of g over rows into procs chunks, at most one
// per row.
func newGridBuild(g *Grid, rows []float64, procs int) gridBuild {
	return gridBuild{g: g, rows: rows, parts: make([]buildPart, max(1, min(procs, len(rows)/g.dim)))}
}

// fixGeometry fixes the grid's origin, extent and stride from the points'
// per-dimension minima and maxima, and records the maxima. It reports false
// when the grid cannot be numbered: a bound that is not finite, or more
// than 2⁶³ cells. Each chunk folds its rows from its first row on, and the
// chunks merge in row order: as one pass keeps the first of equal values
// (−0 before +0 or after) and skips a NaN after the first row, so do they —
// unless a chunk after the first starts on a NaN, which would hide its other
// rows, and then one pass decides.
func (b gridBuild) fixGeometry() bool {
	g, dim := b.g, b.g.dim
	n := len(b.rows) / dim
	g.origin, g.hi = make([]float64, dim), make([]float64, dim)
	chunks(b, n, len(b.parts), gridBuild.extent)
	rest := b.parts[1:]
	if slices.ContainsFunc(rest, func(p buildPart) bool {
		return slices.ContainsFunc(p.lo, math.IsNaN) || slices.ContainsFunc(p.hi, math.IsNaN)
	}) {
		b.extent(0, 0, n)
		rest = nil
	}
	for _, p := range rest {
		for j := range dim {
			if p.lo[j] < g.origin[j] {
				g.origin[j] = p.lo[j]
			}
			if p.hi[j] > g.hi[j] {
				g.hi[j] = p.hi[j]
			}
		}
	}
	g.extent = make([]int, dim)
	g.stride = make([]uint64, dim)
	total := uint64(1)
	for j, top := range g.hi {
		last := g.cellOf(top, j)
		if !(last >= 0 && last < 1<<62) {
			return false
		}
		g.extent[j], g.stride[j] = int(last)+1, total
		hi, lo := bits.Mul64(total, uint64(last)+1)
		if hi != 0 || lo > math.MaxInt64 {
			return false
		}
		total = lo
	}
	return true
}

// extent folds the per-dimension minima and maxima of rows [from, to) into
// chunk c's extent, starting from row from.
func (b gridBuild) extent(c, from, to int) {
	p, dim := &b.parts[c], b.g.dim
	if c == 0 {
		p.lo, p.hi = b.g.origin, b.g.hi
	} else {
		both := make([]float64, 2*dim)
		p.lo, p.hi = both[:dim], both[dim:]
	}
	lo, hi := p.lo, p.hi
	copy(lo, b.rows[from*dim:])
	copy(hi, b.rows[from*dim:])
	for i := (from + 1) * dim; i < to*dim; i += dim {
		for j, v := range b.rows[i : i+dim] {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
}

// cellKey returns the linear number of the cell holding point p under the
// grid's geometry, and false when p lies in no cell of the extent (a
// coordinate that is NaN, ±Inf beside finite points, or outside the extent
// a merge keeps).
func (g *Grid) cellKey(p []float64) (uint64, bool) {
	var key uint64
	for j, v := range p[:g.dim] {
		c := g.cellOf(v, j)
		if !(c >= 0 && c < float64(g.extent[j])) {
			return 0, false
		}
		key += uint64(c) * g.stride[j]
	}
	return key, true
}

// cluster copies the points into cell order under the grid's geometry —
// the stable counting pass of NewGridFlat — and builds the directory and the
// boxes. It reports false, leaving the grid for the caller to discard, when
// some point lies in no cell.
//
// Each chunk numbers its rows' cells and counts them (count); the other
// chunks' cells then enter the grid's directory, which chunk 0 counted in,
// in chunk order, so every cell takes the slot one pass over the rows gives
// it. A prefix sum over the cells in linear order, and within a cell over
// the chunks in row order, turns each chunk's counts into fill cursors, and
// the chunks scatter their rows into disjoint positions (scatter).
func (b gridBuild) cluster(ids []int32) bool {
	g, dim := b.g, b.g.dim
	n := len(b.rows) / dim
	g.ids, g.rank = make([]int32, n), make([]int32, n)
	b.slots = make([]uint64, n)
	// At most min(n, ∏extent) cells are occupied.
	b.size = uint64(n)
	if total := g.stride[dim-1] * uint64(g.extent[dim-1]); total < b.size {
		b.size = total
	}
	g.directory = newDirectory(b.size)
	chunks(b, n, len(b.parts), gridBuild.count)
	all := b.parts[0].occupied
	for _, p := range b.parts {
		if p.outside {
			return false
		}
	}
	for _, p := range b.parts[1:] {
		for _, key := range p.occupied {
			if cell := g.find(key); cell.key == noCell {
				cell.key = key
				all = append(all, key)
			}
		}
	}
	// Lay the cells out in linear-number order, so neighbours along
	// dimension 0 — consecutive stops of a query's walk — are neighbours in
	// memory.
	slices.Sort(all)
	g.runKeys, g.runEnds = slices.Clone(all), make([]int32, len(all))
	var at int32
	for i, key := range g.runKeys {
		cell := g.find(key)
		cell.start, cell.end, at = at, at, at+cell.end
		for _, p := range b.parts[1:] {
			if c := p.dir.find(key); c.key == key {
				c.end, at = at, at+c.end
			}
		}
		g.runEnds[i] = at
	}
	g.pts = make([]float64, len(b.rows))
	chunks(b, n, len(b.parts), gridBuild.scatter)
	if len(b.parts) > 1 { // chunk 0's cursors stopped where chunk 1's started
		for i, key := range g.runKeys {
			g.find(key).end = g.runEnds[i]
		}
	}
	if ids != nil {
		g.renumber(ids)
	}
	g.boxCells(len(b.parts))
	return true
}

// dir returns chunk c's directory: the grid's for chunk 0.
func (b gridBuild) dir(c int) *directory {
	if c == 0 {
		return &b.g.directory
	}
	return &b.parts[c].dir
}

// count numbers the cells of rows [from, to) and counts them in chunk c's
// directory, noting each row's slot there and listing each cell the first
// time it meets it; it stops at a row that lies in no cell. A slot stays
// put: the directory only gains cells.
func (b gridBuild) count(c, from, to int) {
	p, dim := &b.parts[c], b.g.dim
	room := b.size
	if c > 0 {
		room = min(room, uint64(to-from))
		p.dir = newDirectory(room)
	}
	dir, occupied := b.dir(c), make([]uint64, 0, room)
	for i := from; i < to; i++ {
		key, ok := b.g.cellKey(b.rows[i*dim : (i+1)*dim])
		if !ok {
			p.outside = true
			return
		}
		at := dir.slot(key)
		cell := &dir.cells[at]
		b.slots[i] = at
		if cell.key == noCell {
			cell.key = key
			occupied = append(occupied, key)
		}
		cell.end++
	}
	p.occupied = occupied
}

// scatter copies rows [from, to) to their positions, in row order, each at
// its cell's fill cursor in chunk c's directory.
func (b gridBuild) scatter(c, from, to int) {
	g, dim, cells := b.g, b.g.dim, b.dir(c).cells
	for i := from; i < to; i++ {
		cell := &cells[b.slots[i]]
		pos := cell.end
		cell.end++
		g.ids[pos], g.rank[i] = int32(i), pos
		dst, src := g.pts[int(pos)*dim:][:dim], b.rows[i*dim:][:dim]
		for j := range dst {
			dst[j] = src[j] // a copy call costs more than a point's few values
		}
	}
}

// renumber moves a grid whose points are numbered 0..n−1 in input order to
// the caller's ids.
func (g *Grid) renumber(ids []int32) {
	rank := newRank(len(ids), ids)
	for i, pos := range g.rank {
		rank[ids[i]] = pos
	}
	for k, i := range g.ids {
		g.ids[k] = ids[i]
	}
	g.rank = rank
}

// Merge returns the grid of the next read epoch, built from g in one pass
// over its clustered arrays instead of from scratch. The ids in gone leave
// the grid, and those in moved — ids of g whose rows may have changed, and
// new ids — take the rows live holds for them now; every other id keeps the
// row g stores for it, which must still be its live row. Merge keeps g's
// geometry (origin, extent, stride, cell size). A row whose cell did not
// change keeps its place in its cell's order and is copied with its
// neighbours, in stretches; only the rows that changed cell and the new ones
// are merged into their cells, in ascending id. When g's runs ascend in id —
// as every grid NewGridFlatIDs builds from ascending ids, and every merge of
// one, does — the result is, position for position, the grid that
// construction would cluster from the same rows at g's geometry. The
// directory and the boxes are rebuilt from the merged runs, and Max is kept
// up to date from the rows that left, moved and came.
//
// gone must hold ids of g. An id may be listed more than once, and an id in
// both lists is moved. Merge returns nil, and the caller builds afresh, when
// g is scan-only, when no row would remain, or when a moved row's cell lies
// outside g's extent. It writes only new arrays and shares only the
// immutable geometry with g, so readers holding g keep their copy.
func (g *Grid) Merge(live vector.Chunked, gone, moved []int32) *Grid {
	if len(g.cells) == 0 {
		return nil
	}
	sc := mergeScratch.Get().(*mergeBufs)
	defer mergeScratch.Put(sc)
	d, n := g.dim, len(g.ids)
	// state tells what becomes of each stored row: kept, gone, moved (its
	// position vacated, its id placed anew) or refreshed (kept in place at
	// its live row). vac lists the vacated positions, and lost marks the
	// dimensions whose maximum a row that left, moved or changed held.
	const (
		kept uint8 = iota
		dropped
		placed
		refreshed
	)
	state := slices.Grow(sc.state[:0], n)[:n]
	lost := slices.Grow(sc.lost[:0], d)[:d]
	clear(state)
	clear(lost)
	vac, rows, stay := sc.vac[:0], sc.rows[:0], sc.stay[:0]
	defer func() { sc.state, sc.lost, sc.vac, sc.rows, sc.stay = state, lost, vac, rows, stay }()
	leaving := func(p int32) { // the stored row at p leaves or changes
		for j, v := range g.pts[int(p)*d : int(p)*d+d] {
			lost[j] = lost[j] || v == g.hi[j]
		}
	}
	for _, id := range gone {
		p := g.position(id)
		if p < 0 {
			panic(fmt.Sprintf("index: Merge drops id %d, which the grid does not hold", id))
		}
		if state[p] == kept {
			state[p], vac = dropped, append(vac, p)
			leaving(p)
		}
	}
	top := int32(len(g.rank) - 1)
	for _, id := range moved {
		key, ok := g.cellKey(live.Row(int(id)))
		if !ok {
			return nil
		}
		if p := g.position(id); p >= 0 {
			switch state[p] {
			case placed, refreshed:
				continue // listed before
			case kept:
				leaving(p)
				if was, _ := g.cellKey(g.pts[int(p)*d : int(p)*d+d]); was == key {
					state[p], stay = refreshed, append(stay, id)
					continue
				}
				vac = append(vac, p)
			}
			state[p] = placed
		}
		rows, top = append(rows, cellRow{key, id}), max(top, id)
	}
	slices.Sort(vac)
	slices.SortFunc(rows, func(a, b cellRow) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.id, b.id)
	})
	rows = slices.CompactFunc(rows, func(a, b cellRow) bool { return a.id == b.id })
	m := n - len(vac) + len(rows)
	if m == 0 {
		return nil
	}

	// Where each placed row goes: before the first stored row after it in
	// (cell, id) order. And the merged runs: g's, their ends shifted by the
	// rows that left and came before them, less the emptied ones, with the
	// placed rows' new cells between them.
	nr := len(g.runKeys) + len(rows)
	out := &Grid{dim: d, cellSize: g.cellSize, origin: g.origin, extent: g.extent, stride: g.stride,
		hi: slices.Clone(g.hi), runKeys: make([]uint64, 0, nr), runEnds: make([]int32, 0, nr)}
	ins := slices.Grow(sc.ins[:0], len(rows))[:len(rows)]
	defer func() { sc.ins = ins }()
	mi, vi := 0, 0
	left := func(p int) int { // rows vacated below position p, p ascending
		for vi < len(vac) && int(vac[vi]) < p {
			vi++
		}
		return vi
	}
	last, start := 0, 0
	run := func(key uint64, end int) { // an emptied run ends where the last one does
		if end > last {
			out.runKeys, out.runEnds, last = append(out.runKeys, key), append(out.runEnds, int32(end)), end
		}
	}
	for r := 0; r <= len(g.runKeys); r++ {
		end, key := n, uint64(math.MaxUint64)
		if r < len(g.runKeys) {
			end, key = int(g.runEnds[r]), g.runKeys[r]
		}
		for mi < len(rows) && rows[mi].key < key {
			k := rows[mi].key
			for ; mi < len(rows) && rows[mi].key == k; mi++ {
				ins[mi] = start
			}
			run(k, start-left(start)+mi)
		}
		if r == len(g.runKeys) {
			break
		}
		for p := start; mi < len(rows) && rows[mi].key == key; mi++ {
			for p < end && g.ids[p] < rows[mi].id {
				p++
			}
			ins[mi] = p
		}
		run(key, end-left(end)+mi)
		start = end
	}

	// Copy the stored rows in stretches between the vacated positions and
	// the insertion points, placing the moved rows at those points.
	out.pts, out.ids, out.rank = make([]float64, m*d), make([]int32, m), make([]int32, top+1)
	for i := range out.rank {
		out.rank[i] = -1
	}
	at, p := 0, 0
	stretch := func(to int) {
		copy(out.pts[at*d:], g.pts[p*d:to*d])
		copy(out.ids[at:], g.ids[p:to])
		for _, id := range g.ids[p:to] {
			out.rank[id] = int32(at)
			at++
		}
		p = to
	}
	// put writes id's live row at position at; the maxima rise to it.
	put := func(at int, id int32) {
		row := out.pts[at*d : at*d+d]
		copy(row, live.Row(int(id)))
		for j, v := range row {
			if v > out.hi[j] {
				out.hi[j] = v
			}
		}
	}
	mi, vi = 0, 0
	for {
		next := n
		if vi < len(vac) {
			next = int(vac[vi])
		}
		if mi < len(rows) && ins[mi] <= next {
			stretch(ins[mi])
			id := rows[mi].id
			put(at, id)
			out.ids[at], out.rank[id] = id, int32(at)
			at, mi = at+1, mi+1
			continue
		}
		stretch(next)
		if vi == len(vac) {
			break
		}
		p, vi = p+1, vi+1
	}
	for _, id := range stay {
		put(int(out.rank[id]), id)
	}
	// A maximum a row that left or moved held is taken afresh.
	for j, l := range lost {
		if l {
			h := out.pts[j]
			for k := j + d; k < len(out.pts); k += d {
				if v := out.pts[k]; v > h {
					h = v
				}
			}
			out.hi[j] = h
		}
	}

	out.directory = newDirectory(uint64(len(out.runKeys)))
	var from int32
	for i, key := range out.runKeys {
		c := out.find(key)
		c.key, c.start, c.end = key, from, out.runEnds[i]
		from = c.end
	}
	out.boxCells(1)
	return out
}

// position returns id's position in the grid, or −1 when it holds no row
// under id.
func (g *Grid) position(id int32) int32 {
	if id < 0 || int(id) >= len(g.rank) {
		return -1
	}
	return g.rank[id]
}

// cellRow is a row Merge places by cell: its cell's linear number and id.
type cellRow struct {
	key uint64
	id  int32
}

// mergeBufs is Merge's scratch, recycled between merges.
type mergeBufs struct {
	state     []uint8
	lost      []bool
	vac, stay []int32
	rows      []cellRow
	ins       []int
}

var mergeScratch = sync.Pool{New: func() any { return new(mergeBufs) }}

// newDirectory allocates an empty directory for up to size occupied cells:
// twice that many slots keep probe chains short.
func newDirectory(size uint64) directory {
	shift := uint(bits.LeadingZeros64(2*size - 1))
	cells := make([]gridCell, uint64(1)<<(64-shift))
	for i := range cells {
		cells[i].key = noCell
	}
	return directory{cells, shift}
}

// boxCells records the start and the bounding box of every cell of at least
// boxMinPoints points. The runs tile the points in runEnds' order, so the
// boxes fill front to back in one pass over both arrays; procs chunks of
// the runs fill theirs in parallel, each from the first box its runs hold.
func (g *Grid) boxCells(procs int) {
	boxed, start := 0, int32(0)
	for _, end := range g.runEnds {
		if end-start >= boxMinPoints {
			boxed++
		}
		start = end
	}
	g.boxStarts, start = make([]int32, 0, boxed), 0
	for _, end := range g.runEnds {
		if end-start >= boxMinPoints {
			g.boxStarts = append(g.boxStarts, start)
		}
		start = end
	}
	g.boxes = make([]float64, 2*g.dim*boxed)
	chunks(g, len(g.runEnds), procs, (*Grid).boxRuns)
}

// boxRuns records the boxes of runs [from, to).
func (g *Grid) boxRuns(_, from, to int) {
	d, at := g.dim, 0
	if from > 0 {
		at = int(g.runEnds[from-1])
	}
	first, _ := slices.BinarySearch(g.boxStarts, int32(at))
	box := g.boxes[2*d*first:]
	for _, end := range g.runEnds[from:to] {
		if run := g.pts[at*d : int(end)*d]; len(run) >= boxMinPoints*d {
			lo, hi := box[:d], box[d:2*d]
			copy(lo, run)
			copy(hi, run)
			for k := d; k < len(run); k += d {
				for j, v := range run[k : k+d] {
					lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
				}
			}
			box = box[2*d:]
		}
		at = int(end)
	}
}

// cellOf returns the cell coordinate of value v along dimension j, as a
// float so that callers can clamp before converting: a query box may reach
// ±Inf.
func (g *Grid) cellOf(v float64, j int) float64 {
	return math.Floor((v - g.origin[j]) / g.cellSize)
}

// find returns the directory slot of the cell with the given linear number,
// or the empty slot (start = end = 0) where it would be inserted.
func (t *directory) find(key uint64) *gridCell { return &t.cells[t.slot(key)] }

// slot is find's index into cells.
func (t *directory) slot(key uint64) uint64 {
	mask := uint64(len(t.cells) - 1)
	for h := key * 0x9E3779B97F4A7C15 >> t.shift; ; h = (h + 1) & mask {
		if c := &t.cells[h]; c.key == key || c.key == noCell {
			return h
		}
	}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.ids) }

// Dim returns the dimensionality of the indexed points.
func (g *Grid) Dim() int { return g.dim }

// Points returns the indexed coordinates in clustered order, row-major: the
// point at position k (as Scan reports it) is Points()[k*Dim():(k+1)*Dim()].
// The slice is the grid's own and must not be written.
func (g *Grid) Points() []float64 { return g.pts }

// IDs returns the id of the point stored at each position of Points.
func (g *Grid) IDs() []int32 { return g.ids }

// Positions is the inverse of IDs: the position of every id up to the
// largest the grid holds, −1 for an id it does not. The slice is the grid's
// own and must not be written.
func (g *Grid) Positions() []int32 { return g.rank }

// Max returns the largest coordinate of the stored points along each
// dimension. The slice is the grid's own and must not be written.
func (g *Grid) Max() []float64 { return g.hi }

// Cluster returns col — one value per indexed point, by row id — permuted
// into clustered order, so out[k] belongs to the point at position k.
func (g *Grid) Cluster(col []float64) []float64 {
	out := make([]float64, len(g.ids))
	for k, id := range g.ids {
		out[k] = col[id]
	}
	return out
}

// positions recycles the scratch Radius scans into before it maps the
// positions back to row ids.
var positions = sync.Pool{New: func() any { return new([]int32) }}

// Radius returns the row ids of all points x with ||x - center||_p <= radius,
// in the grid's visit order (see Grid). p must be at least 1 (+Inf is L∞).
func (g *Grid) Radius(center []float64, radius float64, p float64) ([]int, error) {
	buf := positions.Get().(*[]int32)
	defer positions.Put(buf)
	pos, err := g.Scan(context.Background(), (*buf)[:0], center, radius, p)
	*buf = pos
	if err != nil || len(pos) == 0 {
		return nil, err
	}
	ids := make([]int, len(pos))
	for k, at := range pos {
		ids[k] = int(g.ids[at])
	}
	return ids, nil
}

// Scan appends to dst the clustered positions of all points x with
// ||x - center||_p <= radius, in the grid's visit order, and returns the
// extended slice; a position indexes Points and any Cluster-ed column. It
// allocates only to grow dst. ctx is observed before the first point and at
// least once every ScanCheckRows candidates; a cancelled scan returns
// ctx.Err() and whatever it had appended. A centre of the wrong dimension, a
// negative or NaN radius, and a p below 1 or NaN are refused before any
// point is tested (ErrDimension, ErrRadius, ErrNorm).
func (g *Grid) Scan(ctx context.Context, dst []int32, center []float64, radius, p float64) ([]int32, error) {
	dst, _, err := g.scan(ctx, dst, center, radius, p)
	return dst, err
}

// scan is Scan, and also returns how many points of the cell walk went
// through filter — the complexity guard's count; 0 for the row-order scan.
func (g *Grid) scan(ctx context.Context, dst []int32, center []float64, radius, p float64) ([]int32, int, error) {
	if err := checkQuery(g.dim, center, radius, p); err != nil {
		return dst, 0, err
	}
	if err := ctx.Err(); err != nil {
		return dst, 0, err
	}
	// The L1/L2/… ball of radius r lies inside the L∞ box of radius r, so
	// the cells overlapping that box always suffice. When the box — counted
	// unclamped and in floats, so neither the data's extent nor an enormous
	// radius can bend the count — covers more cells than there are points,
	// a plain scan is cheaper than enumerating empty cells.
	boxCells := 1.0
	for j, c := range center {
		boxCells *= g.cellOf(c+radius, j) - g.cellOf(c-radius, j) + 1
	}
	if len(g.cells) == 0 || !(boxCells <= float64(len(g.ids))) {
		dst, err := g.scanRows(ctx, dst, center, radius, p)
		return dst, 0, err
	}

	// Clamp the box to the grid while it is still in floats, then walk it.
	var stack [3 * 8]int
	box := stack[:]
	if 3*g.dim > len(box) {
		box = make([]int, 3*g.dim)
	}
	lo, hi, cur := box[:g.dim], box[g.dim:2*g.dim], box[2*g.dim:3*g.dim]
	var key uint64
	for j, c := range center {
		l := math.Max(g.cellOf(c-radius, j), 0)
		h := math.Min(g.cellOf(c+radius, j), float64(g.extent[j]-1))
		if l > h {
			return dst, 0, nil // the box misses the data
		}
		lo[j], hi[j], cur[j] = int(l), int(h), int(l)
		key += uint64(lo[j]) * g.stride[j]
	}
	var sq float64
	if p == 2 {
		sq = sqThreshold(radius)
	}
	tested, filtered := 0, 0
	for {
		for k := uint64(0); k <= uint64(hi[0]-lo[0]); k++ {
			c := g.find(key + k)
			if c.start == c.end {
				continue
			}
			whole := false
			if p == 2 && c.end-c.start >= boxMinPoints {
				i, _ := slices.BinarySearch(g.boxStarts, c.start)
				smin, smax := g.cellBounds(i, center)
				if smin > sq {
					continue
				}
				whole = smax <= sq
			}
			for from, to := int(c.start), int(c.end); from < to; {
				n := min(to-from, ScanCheckRows-tested)
				if whole {
					dst = appendRun(dst, from, from+n)
				} else {
					dst = g.filter(dst, from, from+n, center, radius, p, sq)
					filtered += n
				}
				from += n
				if tested += n; tested == ScanCheckRows {
					if err := ctx.Err(); err != nil {
						return dst, filtered, err
					}
					tested = 0
				}
			}
		}
		// Advance the odometer over dimensions 1..dim-1.
		j := 1
		for ; j < g.dim; j++ {
			cur[j]++
			key += g.stride[j]
			if cur[j] <= hi[j] {
				break
			}
			key -= uint64(cur[j]-lo[j]) * g.stride[j]
			cur[j] = lo[j]
		}
		if j >= g.dim {
			return dst, filtered, nil
		}
	}
}

// sqThreshold returns T(r), the largest float64 whose math.Sqrt is at most
// r ≥ 0, so that on s ≥ 0 the test s ≤ T(r) is math.Sqrt(s) ≤ r: the square
// root is correctly rounded, hence monotone, and {s : √s ≤ r} is [0, T(r)].
// A NaN s fails both forms. It starts from r·r (+Inf when that overflows)
// and steps an ulp at a time, which settles within a few steps; T(0) = 0,
// and a finite r never yields +Inf.
func sqThreshold(r float64) float64 {
	t := r * r
	for math.Sqrt(t) > r {
		t = math.Nextafter(t, 0)
	}
	for !math.IsInf(t, 1) {
		next := math.Nextafter(t, math.Inf(1))
		if math.Sqrt(next) > r {
			break
		}
		t = next
	}
	return t
}

// cellBounds returns bounds on the squared L2 distance from center of every
// point stored in the cell whose bounding box is boxes' entry i: smin sums
// the squared gap from each coordinate of center to the box's extent along
// that dimension (0 inside it), smax the square of the larger distance to
// its two faces. Both sum in filter's order with filter's operations on the
// face coordinates; every one of those rounded operations is monotone, so a
// stored point's computed s lies in [smin, smax].
func (g *Grid) cellBounds(i int, center []float64) (smin, smax float64) {
	d := len(center)
	box := g.boxes[2*d*i:][:2*d]
	lo, hi := box[:d], box[d:]
	for j, c := range center {
		dl, dh := lo[j]-c, hi[j]-c // dl ≤ dh, and every point's x−c lies between
		gap, far := max(dl, -dh, 0), max(-dl, dh)
		smin += gap * gap
		smax += far * far
	}
	return smin, smax
}

// appendRun appends the positions [from, to) to dst.
func appendRun(dst []int32, from, to int) []int32 {
	k := len(dst)
	dst = slices.Grow(dst, to-from)[:k+to-from]
	run := dst[k:]
	for i := range run {
		run[i] = int32(from + i)
	}
	return dst
}

// filter appends the positions in [from, to) whose points lie within the
// ball. Every candidate's position is stored unconditionally and the length
// advances only past the ones that qualify, which keeps the loop free of an
// unpredictable branch. The L2 test accumulates d₀², d₁², … in index order,
// exactly as vector.DistanceLp does, and compares the sum with sq, the
// radius's sqThreshold; both L2 loops reslice the points as they advance,
// so the compiler proves every coordinate load in bounds.
func (g *Grid) filter(dst []int32, from, to int, center []float64, radius, p, sq float64) []int32 {
	k, n, d := len(dst), to-from, g.dim
	dst = slices.Grow(dst, n)[:k+n]
	pts := g.pts[from*d : to*d]
	pos := int32(from)
	switch {
	case p != 2:
		for i := 0; i < n; i++ {
			dst[k] = int32(from + i)
			if vector.DistanceLp(pts[i*d:i*d+d], center, p) <= radius {
				k++
			}
		}
	case d == 2:
		// The default case unrolled for the paper's plane queries. The loop
		// stops one point short: while more than one point is left, the
		// advance cannot empty pts, so the compiler proves the loads in
		// bounds and advances the pointer unmasked. The last point follows.
		c0, c1 := center[0], center[1]
		for len(pts) > 2 {
			dst[k] = pos
			if sqDist2(pts[0], pts[1], c0, c1) <= sq {
				k++
			}
			pos++
			pts = pts[2:]
		}
		if len(pts) == 2 {
			dst[k] = pos
			if sqDist2(pts[0], pts[1], c0, c1) <= sq {
				k++
			}
		}
	default:
		center = center[:d]
		for ; len(pts) >= d; pts = pts[d:] {
			var s float64
			for j, v := range pts[:len(center)] {
				diff := v - center[j]
				s += diff * diff
			}
			dst[k] = pos
			if s <= sq {
				k++
			}
			pos++
		}
	}
	return dst[:k]
}

// sqDist2 is filter's squared L2 distance at d = 2: 0 + d₀² is d₀² exactly,
// so it is the general loop's sum.
func sqDist2(x0, x1, c0, c1 float64) float64 {
	d0, d1 := x0-c0, x1-c1
	s := d0 * d0
	s += d1 * d1
	return s
}

// NearestStale returns the point nearest to q under the L2 norm, and the
// squared distance to it, when the grid's points are a stale copy of live
// rows that may have moved since the build. live is the current point matrix
// as a chunked view indexed by the grid's ids; it may hold rows the grid
// does not, and the zero Chunked means the grid's points are the live rows.
// slack bounds how far any point has moved from its stored position: the
// search prunes by the stored geometry widened by slack — a point's live
// distance is at least its stored distance minus slack — and measures every
// surviving candidate on its live row (with slack 0 the stored distance is
// the live one). seed, an id at squared live distance seedSq, starts the
// running best (seed < 0 for none); the caller seeds with the rows the grid
// does not index. Ties break toward the lowest id. NearestStale allocates
// nothing for dim ≤ 8.
//
// The search walks rings of cells — the cells at Chebyshev distance r from
// the query's cell — outward from the first ring that meets the grid, and
// visits of each ring only the cells inside the box a better point can lie
// in (see reach); it stops at the first ring that box does not reach. The
// walk may step through 2n+64 ring cells, counting the ends of rows that
// fall outside the box: when the cell size is badly matched to the point
// spacing, or the query lies farther out than the budget, the search
// finishes with one exact scan instead — over the live rows when there are
// any, over the stored points otherwise. The answer is the same either way;
// the budget bounds the worst case at O(n). A scan-only grid always scans.
func (g *Grid) NearestStale(q []float64, slack float64, live vector.Chunked, seed int, seedSq float64) (int, float64) {
	best, bestSq, _ := g.NearestStaleMeasured(q, slack, live, seed, seedSq)
	return best, bestSq
}

// NearestStaleMeasured is NearestStale, and also returns how many stored
// points the search measured: the count the winner search's complexity
// guards bound.
func (g *Grid) NearestStaleMeasured(q []float64, slack float64, live vector.Chunked, seed int, seedSq float64) (int, float64, int) {
	if len(q) != g.dim {
		panic(fmt.Sprintf("index: NearestStale query dim %d, index dim %d", len(q), g.dim))
	}
	s := newNearestSearch(q, slack, live, seed, seedSq)
	best, bestSq := g.nearest(&s)
	return best, bestSq, s.tested
}

// nearest runs the search NearestStale set up.
func (g *Grid) nearest(s *nearestSearch) (int, float64) {
	if len(g.cells) == 0 {
		return g.nearestScan(s)
	}
	// The first ring that meets the grid is the query cell's largest
	// per-dimension distance to the occupied extent. It is found in floats,
	// and a query farther out than the budget is scanned, so no conversion
	// below can overflow.
	budget := 2*len(g.ids) + 64
	first := 0.0
	for j, v := range s.q {
		c := g.cellOf(v, j)
		first = max(first, -c, c-float64(g.extent[j]-1))
	}
	if !(first <= float64(budget)) {
		return g.nearestScan(s)
	}
	d := g.dim
	var stack [4 * 8]int
	box := stack[:]
	if 4*d > len(box) {
		box = make([]int, 4*d)
	}
	qc, lo, hi, cur := box[:d], box[d:2*d], box[2*d:3*d], box[3*d:4*d]
	for j, v := range s.q {
		qc[j] = int(g.cellOf(v, j))
	}
	for r := int(first); g.reach(s, qc, r, lo, hi); r++ {
		// The ring's part of the box is walked as rows along dimension 0
		// like Scan's box: a row on the ring in another dimension lies
		// wholly on the ring, any other row only at its two ends.
		var key uint64
		for j := range qc {
			cur[j] = lo[j]
			key += uint64(lo[j]) * g.stride[j]
		}
		for {
			from, to, step := lo[0], hi[0], 1
			if !onRing(cur, qc, r) {
				from, to, step = qc[0]-r, qc[0]+r, max(2*r, 1)
			}
			for c := from; c <= to; c += step {
				if budget--; budget < 0 {
					return g.nearestScan(s)
				}
				if c >= lo[0] && c <= hi[0] {
					g.nearestCell(s, key+uint64(c-lo[0]))
				}
			}
			j := 1
			for ; j < d; j++ {
				cur[j]++
				key += g.stride[j]
				if cur[j] <= hi[j] {
					break
				}
				key -= uint64(cur[j]-lo[j]) * g.stride[j]
				cur[j] = lo[j]
			}
			if j >= d {
				break
			}
		}
	}
	return s.best, s.bestSq
}

// reach stores in lo and hi the cells of ring r around the query's cell qc
// that can hold a point passing the search's cutoff, as a box, and reports
// whether the ring has any. Every point within √cutoffSq of the query along
// each dimension lies in the cutoff's cell box, clamped to the grid; the
// ring's box [qc−r, qc+r] meets it in every dimension once r ≥ the first
// ring, and the intersection holds cells of the ring itself only while a
// face of the ring lies inside the cutoff box. The cutoff only shrinks, so a
// box taken at the ring's start stays conservative for the whole ring, and
// the first ring it does not reach ends the walk. Like Scan's box it rests
// only on cellOf being monotone, so it holds however coarse the cell
// numbers' floats are. For a query that lands near its winner (the training
// regime) it ends the walk after ring 0 or visits the few ring-1 cells on
// the winner's side instead of all 3^dim − 1.
func (g *Grid) reach(s *nearestSearch, qc []int, r int, lo, hi []int) bool {
	up, down := math.Inf(1), math.Inf(-1)
	rad := math.Nextafter(math.Sqrt(s.cutoffSq), up)
	face := false
	for j, v := range s.q {
		l := max(g.cellOf(math.Nextafter(v-rad, down), j), 0)
		h := min(g.cellOf(math.Nextafter(v+rad, up), j), float64(g.extent[j]-1))
		if !(l <= h) {
			return false // the cutoff ball misses the grid
		}
		lo[j], hi[j] = max(qc[j]-r, int(l)), min(qc[j]+r, int(h))
		face = face || lo[j] == qc[j]-r || hi[j] == qc[j]+r
	}
	return face
}

// onRing reports whether the row of cells through cur along dimension 0
// lies on ring r around qc in some other dimension.
func onRing(cur, qc []int, r int) bool {
	for j := 1; j < len(cur); j++ {
		if cur[j] == qc[j]-r || cur[j] == qc[j]+r {
			return true
		}
	}
	return false
}

// nearestSearch is NearestStale's running state.
type nearestSearch struct {
	q        []float64
	slack    float64
	live     vector.Chunked
	verify   bool // candidates are measured on their live rows
	best     int
	bestSq   float64
	cutoffSq float64 // a stored point farther than this cannot win
	tested   int     // points measured, for the complexity guard
}

// newNearestSearch starts a search with NearestStale's arguments.
func newNearestSearch(q []float64, slack float64, live vector.Chunked, seed int, seedSq float64) nearestSearch {
	s := nearestSearch{q: q, slack: slack, live: live, verify: slack != 0 && !live.IsZero(), best: -1, bestSq: math.Inf(1)}
	if seed >= 0 {
		s.best, s.bestSq = seed, seedSq
	}
	s.tighten()
	return s
}

// tighten recomputes the cutoff from the best: (√bestSq + slack)², and
// never below bestSq, so a point that ties the best is still tested.
func (s *nearestSearch) tighten() {
	c := math.Sqrt(s.bestSq) + s.slack
	s.cutoffSq = max(c*c, s.bestSq)
}

// offer makes id the best when it is nearer than the best, or as near with
// a lower id.
func (s *nearestSearch) offer(id int, sq float64) {
	if sq < s.bestSq || (sq == s.bestSq && (s.best < 0 || id < s.best)) {
		s.best, s.bestSq = id, sq
		s.tighten()
	}
}

// nearestCell offers the points of the cell with the given linear number.
func (g *Grid) nearestCell(s *nearestSearch, key uint64) {
	c := g.find(key)
	d := g.dim
	s.tested += int(c.end - c.start)
	for pos := int(c.start); pos < int(c.end); pos++ {
		sq, within := vector.SqDistanceWithin(g.pts[pos*d:pos*d+d], s.q, s.cutoffSq)
		if !within {
			continue
		}
		id := int(g.ids[pos])
		if s.verify {
			sq = vector.SqDistanceFlat(s.live.Row(id), s.q)
		}
		s.offer(id, sq)
	}
}

// nearestScan finishes a search with one exact scan: over the live rows
// when the caller has them, over the stored points otherwise.
func (g *Grid) nearestScan(s *nearestSearch) (int, float64) {
	s.tested += len(g.ids)
	if !s.live.IsZero() {
		if i, sq := vector.ArgminSqDistanceChunkedRange(s.live, s.q, 0, -1, math.Inf(1)); i >= 0 {
			s.offer(i, sq)
		}
		return s.best, s.bestSq
	}
	d := g.dim
	for pos, id := range g.ids {
		s.offer(int(id), vector.SqDistanceFlat(g.pts[pos*d:pos*d+d], s.q))
	}
	return s.best, s.bestSq
}

// scanRows is the full scan in row order: ascending id.
func (g *Grid) scanRows(ctx context.Context, dst []int32, center []float64, radius, p float64) ([]int32, error) {
	d := g.dim
	for i, pos := range g.rank {
		if i%ScanCheckRows == ScanCheckRows-1 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		if pos >= 0 && vector.DistanceLp(g.pts[int(pos)*d:int(pos)*d+d], center, p) <= radius {
			dst = append(dst, pos)
		}
	}
	return dst, nil
}

package index

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"llmq/internal/vector"
)

// ScanCheckRows bounds how many candidate points Grid.Scan tests between
// two looks at its context: often enough that an abandoned scan over a large
// subspace stops within microseconds, rarely enough that the check is
// invisible in the per-point cost.
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
// a box-aligned ball may be one Linear reports and the grid does not.
//
// Cells are found through an open-addressing table keyed by the linear cell
// number Σ coord[j]·stride[j], which works however sparse the grid is (d = 8
// at a tenth of the span is 10⁸ cells for a few thousand occupied ones). A
// grid whose cell numbers do not fit 63 bits, or whose points are not all
// finite, keeps no table and answers every query by the row-order scan. A
// Grid is immutable after construction and safe for concurrent use.
type Grid struct {
	dim      int
	cellSize float64
	origin   []float64 // per-dimension minimum of the points
	extent   []int     // cells per dimension: cell coordinates lie in [0, extent[j])
	stride   []uint64  // linear cell number = Σ coord[j]·stride[j]

	pts  []float64 // clustered coordinates, row-major: position k is pts[k*dim:(k+1)*dim]
	ids  []int32   // clustered position → row id
	rank []int32   // row id → clustered position

	cells []gridCell // the directory; len is a power of two, or 0 for a scan-only grid
	shift uint       // 64 − log2(len(cells))
}

// gridCell is one directory slot: the occupied cell's linear number and its
// run of clustered positions [start, end).
type gridCell struct {
	key        uint64
	start, end int32
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
// columnar table without materializing one slice per row. The grid may keep
// rows, which the caller must not write afterwards.
//
// Construction clusters the points in three passes: one numbers every
// point's cell, one counts the cells into the directory, and one stable
// counting pass copies the points into cell order.
func NewGridFlat(rows []float64, dim int, cellSize float64) (*Grid, error) {
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
	g := &Grid{dim: dim, cellSize: cellSize, ids: make([]int32, n), rank: make([]int32, n)}
	keys := g.cellNumbers(rows)
	if keys == nil {
		g.pts = rows
		for i := range g.ids {
			g.ids[i], g.rank[i] = int32(i), int32(i)
		}
		return g, nil
	}

	// Count the points of every occupied cell. At most min(n, ∏extent) cells
	// are occupied; twice that many slots keep probe chains short.
	size := uint64(n)
	if total := g.stride[dim-1] * uint64(g.extent[dim-1]); total < size {
		size = total
	}
	g.shift = uint(bits.LeadingZeros64(2*size - 1))
	g.cells = make([]gridCell, uint64(1)<<(64-g.shift))
	for i := range g.cells {
		g.cells[i].key = noCell
	}
	occupied := make([]uint64, 0, size)
	for _, key := range keys {
		c := g.find(key)
		if c.key == noCell {
			c.key = key
			occupied = append(occupied, key)
		}
		c.end++
	}
	// Lay the cells out in linear-number order, so neighbours along
	// dimension 0 — consecutive stops of a query's walk — are neighbours in
	// memory.
	slices.Sort(occupied)
	var at int32
	for _, key := range occupied {
		c := g.find(key)
		c.start, c.end, at = at, at, at+c.end
	}
	// Scatter in ascending row id; c.end is the cell's fill cursor and ends
	// where the count put it.
	g.pts = make([]float64, len(rows))
	for i, key := range keys {
		c := g.find(key)
		pos := c.end
		c.end++
		g.ids[pos], g.rank[i] = int32(i), pos
		copy(g.pts[int(pos)*dim:], rows[i*dim:(i+1)*dim])
	}
	return g, nil
}

// cellNumbers fixes the grid's geometry (origin, extent, stride) and returns
// every point's linear cell number, or nil when the grid cannot be numbered:
// a coordinate that is not finite, or more than 2⁶³ cells.
func (g *Grid) cellNumbers(rows []float64) []uint64 {
	dim := g.dim
	g.origin = slices.Clone(rows[:dim])
	top := slices.Clone(rows[:dim])
	for i := dim; i < len(rows); i += dim {
		for j, v := range rows[i : i+dim] {
			if v < g.origin[j] {
				g.origin[j] = v
			}
			if v > top[j] {
				top[j] = v
			}
		}
	}
	g.extent = make([]int, dim)
	g.stride = make([]uint64, dim)
	total := uint64(1)
	for j := range top {
		last := g.cellOf(top[j], j)
		if !(last >= 0 && last < 1<<62) {
			return nil
		}
		g.extent[j], g.stride[j] = int(last)+1, total
		hi, lo := bits.Mul64(total, uint64(last)+1)
		if hi != 0 || lo > math.MaxInt64 {
			return nil
		}
		total = lo
	}
	keys := make([]uint64, len(rows)/dim)
	for i := range keys {
		var key uint64
		for j, v := range rows[i*dim : (i+1)*dim] {
			c := g.cellOf(v, j)
			if !(c >= 0 && c < float64(g.extent[j])) { // NaN, or ±Inf beside finite points
				return nil
			}
			key += uint64(c) * g.stride[j]
		}
		keys[i] = key
	}
	return keys
}

// cellOf returns the cell coordinate of value v along dimension j, as a
// float so that callers can clamp before converting: a query box may reach
// ±Inf.
func (g *Grid) cellOf(v float64, j int) float64 {
	return math.Floor((v - g.origin[j]) / g.cellSize)
}

// find returns the directory slot of the cell with the given linear number,
// or the empty slot (start = end = 0) where it would be inserted.
func (g *Grid) find(key uint64) *gridCell {
	mask := uint64(len(g.cells) - 1)
	for h := key * 0x9E3779B97F4A7C15 >> g.shift; ; h = (h + 1) & mask {
		if c := &g.cells[h]; c.key == key || c.key == noCell {
			return c
		}
	}
}

// Len implements SpatialIndex.
func (g *Grid) Len() int { return len(g.ids) }

// Dim implements SpatialIndex.
func (g *Grid) Dim() int { return g.dim }

// Points returns the indexed coordinates in clustered order, row-major: the
// point at position k (as Scan reports it) is Points()[k*Dim():(k+1)*Dim()].
// The slice is the grid's own and must not be written.
func (g *Grid) Points() []float64 { return g.pts }

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

// Radius implements SpatialIndex. The ids come back in the grid's visit
// order (see Grid).
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
// ctx.Err() and whatever it had appended.
func (g *Grid) Scan(ctx context.Context, dst []int32, center []float64, radius, p float64) ([]int32, error) {
	if err := checkQuery(g.dim, center, radius); err != nil {
		return dst, err
	}
	if err := ctx.Err(); err != nil {
		return dst, err
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
		return g.scanRows(ctx, dst, center, radius, p)
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
			return dst, nil // the box misses the data
		}
		lo[j], hi[j], cur[j] = int(l), int(h), int(l)
		key += uint64(lo[j]) * g.stride[j]
	}
	tested := 0
	for {
		for k := uint64(0); k <= uint64(hi[0]-lo[0]); k++ {
			c := g.find(key + k)
			for from, to := int(c.start), int(c.end); from < to; {
				n := min(to-from, ScanCheckRows-tested)
				dst = g.filter(dst, from, from+n, center, radius, p)
				from += n
				if tested += n; tested == ScanCheckRows {
					if err := ctx.Err(); err != nil {
						return dst, err
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
			return dst, nil
		}
	}
}

// filter appends the positions in [from, to) whose points lie within the
// ball. Every candidate's position is stored unconditionally and the length
// advances only past the ones that qualify, which keeps the loop free of an
// unpredictable branch. The L2 test accumulates d₀², d₁², … in index order
// and compares the square root, exactly as vector.DistanceLp does.
func (g *Grid) filter(dst []int32, from, to int, center []float64, radius, p float64) []int32 {
	k, n, d := len(dst), to-from, g.dim
	dst = slices.Grow(dst, n)[:k+n]
	pts := g.pts[from*d : to*d]
	switch {
	case p != 2:
		for i := 0; i < n; i++ {
			dst[k] = int32(from + i)
			if vector.DistanceLp(pts[i*d:i*d+d], center, p) <= radius {
				k++
			}
		}
	case d == 2:
		// The default case unrolled for the paper's plane queries: 0 + d₀²
		// is d₀² exactly. Worth 80 → 49 µs per mean on bench's exact_mixed.
		c0, c1 := center[0], center[1]
		for i := 0; i < n; i++ {
			d0, d1 := pts[2*i]-c0, pts[2*i+1]-c1
			s := d0 * d0
			s += d1 * d1
			dst[k] = int32(from + i)
			if math.Sqrt(s) <= radius {
				k++
			}
		}
	default:
		center = center[:d]
		for i := 0; i < n; i++ {
			var s float64
			for j, v := range pts[i*d : i*d+d] {
				diff := v - center[j]
				s += diff * diff
			}
			dst[k] = int32(from + i)
			if math.Sqrt(s) <= radius {
				k++
			}
		}
	}
	return dst[:k]
}

// scanRows is the full scan in row order.
func (g *Grid) scanRows(ctx context.Context, dst []int32, center []float64, radius, p float64) ([]int32, error) {
	d := g.dim
	for i, pos := range g.rank {
		if i%ScanCheckRows == ScanCheckRows-1 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		if vector.DistanceLp(g.pts[int(pos)*d:int(pos)*d+d], center, p) <= radius {
			dst = append(dst, pos)
		}
	}
	return dst, nil
}

// Package index provides the spatial access methods of both sides of the
// system.
//
// For the exact query executor it evaluates the dNN (radius) selection
// operator — given a centre x and radius θ, return every indexed point
// within Lp distance θ — mirroring the indexed selection the paper's
// PostgreSQL substrate performs with a B-tree. Linear is the brute-force
// scan every other structure is validated against; KDTree prunes by split
// planes; Grid is the one the executor serves from. Grid keeps its own copy
// of the points clustered by cell in flat arrays, so a query walks a few
// contiguous runs of memory, and besides row ids (Radius) it reports
// positions in that clustered order (Scan), which the executor's mean and
// regression use to reduce straight over clustered columns without an id
// list. Grid's visit order — cells as an odometer, ascending row id inside a
// cell, row order for queries wider than the grid — is part of its contract:
// every EXACT answer, and so every training label, is a floating-point sum
// taken in it.
//
// For the model's serving path it provides the read-epoch structures the
// prototype store builds over frozen row copies: DynamicGrid (incremental
// uniform grid, low-dimensional query spaces) and BulkKDTree (bulk-built
// implicit-layout k-d tree, wide query spaces). Both answer NearestStale
// and radius queries (DynamicGrid.Range reports candidate ids,
// BulkKDTree.LeafRuns the leaf spans for the caller to test) that stay
// exact while the live rows drift from the indexed copy — every pruning
// bound is widened by the caller's drift slack and what survives is
// verified by the caller — and both can index a sparse slot space through external ids (InsertWithID /
// NewBulkKDTreeIDs), which is how the bounded prototype store indexes only
// the live slots of a tombstoned row space. See docs/ARCHITECTURE.md for
// where each structure sits in the read path.
package index

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"llmq/internal/vector"
)

// Errors returned by index construction and search.
var (
	ErrEmpty     = errors.New("index: no points")
	ErrDimension = errors.New("index: dimension mismatch")
	ErrRadius    = errors.New("index: radius must be non-negative")
)

// SpatialIndex answers radius queries over a fixed set of points.
type SpatialIndex interface {
	// Len returns the number of indexed points.
	Len() int
	// Dim returns the dimensionality of the indexed points.
	Dim() int
	// Radius returns the ids of all points p with ||p - center||_p <= radius.
	// The order of the returned ids is unspecified.
	Radius(center []float64, radius float64, p float64) ([]int, error)
}

func checkQuery(dim int, center []float64, radius float64) error {
	if len(center) != dim {
		return fmt.Errorf("%w: query dim %d, index dim %d", ErrDimension, len(center), dim)
	}
	if radius < 0 || math.IsNaN(radius) {
		return fmt.Errorf("%w: %v", ErrRadius, radius)
	}
	return nil
}

// Linear is the brute-force scan index: O(n·d) per radius query. It is the
// reference implementation that the grid and kd-tree are tested against.
type Linear struct {
	pts [][]float64
	dim int
}

// NewLinear builds a linear index over the given points (not copied).
func NewLinear(pts [][]float64) (*Linear, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	dim := len(pts[0])
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimension, i, len(p), dim)
		}
	}
	return &Linear{pts: pts, dim: dim}, nil
}

// Len implements SpatialIndex.
func (l *Linear) Len() int { return len(l.pts) }

// Dim implements SpatialIndex.
func (l *Linear) Dim() int { return l.dim }

// Radius implements SpatialIndex.
func (l *Linear) Radius(center []float64, radius float64, p float64) ([]int, error) {
	if err := checkQuery(l.dim, center, radius); err != nil {
		return nil, err
	}
	var ids []int
	for i, pt := range l.pts {
		if vector.DistanceLp(pt, center, p) <= radius {
			ids = append(ids, i)
		}
	}
	return ids, nil
}

// KDTree is a k-d tree over the indexed points supporting radius search.
// Construction is O(n log n); radius queries prune subtrees whose bounding
// splits cannot contain any point within the query ball.
type KDTree struct {
	pts   [][]float64
	dim   int
	nodes []kdNode
	root  int
}

type kdNode struct {
	pointID     int
	axis        int
	left, right int // -1 when absent
}

// NewKDTree builds a kd-tree over the given points (not copied).
func NewKDTree(pts [][]float64) (*KDTree, error) {
	if len(pts) == 0 {
		return nil, ErrEmpty
	}
	dim := len(pts[0])
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimension, i, len(p), dim)
		}
	}
	t := &KDTree{pts: pts, dim: dim, nodes: make([]kdNode, 0, len(pts))}
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	t.root = t.build(ids, 0)
	return t, nil
}

func (t *KDTree) build(ids []int, depth int) int {
	if len(ids) == 0 {
		return -1
	}
	axis := depth % t.dim
	sort.Slice(ids, func(a, b int) bool { return t.pts[ids[a]][axis] < t.pts[ids[b]][axis] })
	mid := len(ids) / 2
	nodeID := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{pointID: ids[mid], axis: axis})
	left := t.build(append([]int(nil), ids[:mid]...), depth+1)
	right := t.build(append([]int(nil), ids[mid+1:]...), depth+1)
	t.nodes[nodeID].left = left
	t.nodes[nodeID].right = right
	return nodeID
}

// Len implements SpatialIndex.
func (t *KDTree) Len() int { return len(t.pts) }

// Dim implements SpatialIndex.
func (t *KDTree) Dim() int { return t.dim }

// Radius implements SpatialIndex.
func (t *KDTree) Radius(center []float64, radius float64, p float64) ([]int, error) {
	if err := checkQuery(t.dim, center, radius); err != nil {
		return nil, err
	}
	var ids []int
	t.radius(t.root, center, radius, p, &ids)
	return ids, nil
}

func (t *KDTree) radius(nodeID int, center []float64, radius, p float64, out *[]int) {
	if nodeID < 0 {
		return
	}
	node := t.nodes[nodeID]
	pt := t.pts[node.pointID]
	if vector.DistanceLp(pt, center, p) <= radius {
		*out = append(*out, node.pointID)
	}
	// Split-plane distance along the node axis. For any Lp (p >= 1) the
	// per-axis distance lower-bounds the Lp distance, so pruning with it is
	// safe for every supported norm.
	diff := center[node.axis] - pt[node.axis]
	if diff <= radius {
		t.radius(node.left, center, radius, p, out)
	}
	if -diff <= radius {
		t.radius(node.right, center, radius, p, out)
	}
}

// CountInRadius is a convenience helper returning only the cardinality
// n_θ(x) of the selection, used by Q1's denominator.
func CountInRadius(idx SpatialIndex, center []float64, radius float64, p float64) (int, error) {
	ids, err := idx.Radius(center, radius, p)
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

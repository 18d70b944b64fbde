// Package index provides the spatial access methods of both sides of the
// system.
//
// For the exact query executor it evaluates the dNN (radius) selection
// operator — given a centre x and radius θ, return every indexed point
// within Lp distance θ — mirroring the indexed selection the paper's
// PostgreSQL substrate performs with a B-tree. Linear is the brute-force
// scan every other structure is validated against; Grid is the one the
// executor serves from. Grid keeps its own copy of the points clustered by
// cell in flat arrays, so a query walks a few contiguous runs of memory, and
// besides row ids (Radius) it reports positions in that clustered order
// (Scan), which the executor's mean and regression use to reduce straight
// over clustered columns without an id list. Grid's visit order — cells as
// an odometer, ascending row id inside a cell, row order for queries wider
// than the grid — is part of its contract: every EXACT answer, and so every
// training label, is a floating-point sum taken in it.
//
// For the model's serving path it provides the read-epoch structures the
// prototype store builds over frozen row copies: the same Grid for
// low-dimensional query spaces and BulkKDTree (bulk-built implicit-layout
// k-d tree) for wide ones. Both answer NearestStale and a radius query
// (Grid.Scan reports candidate positions, BulkKDTree.LeafRuns the leaf spans
// for the caller to test) that stay exact while the live rows drift from
// the indexed copy — every pruning bound is widened by the caller's drift
// slack and what survives is verified by the caller — and both can index a
// sparse slot space through caller ids (NewGridFlatIDs / NewBulkKDTreeIDs),
// which is how the bounded prototype store indexes only the live slots of a
// tombstoned row space. Partition splits a query space into the sharding
// layer's regions. See docs/ARCHITECTURE.md for where each structure sits in
// the read path.
package index

import (
	"errors"
	"fmt"
	"math"

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
// reference implementation that the grid and the k-d tree are tested against.
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

// Nearest returns the id of the indexed point closest to center under the L2
// norm and the squared distance to it. Ties break toward the lowest id. It
// is the reference Grid.NearestStale is tested against.
func (l *Linear) Nearest(center []float64) (int, float64) {
	best, bestSq := -1, math.Inf(1)
	for i, pt := range l.pts {
		if sq := vector.SqDistanceFlat(pt, center); sq < bestSq {
			best, bestSq = i, sq
		}
	}
	return best, bestSq
}

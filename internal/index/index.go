// Package index provides the spatial access methods of both sides of the
// system.
//
// For the exact query executor it evaluates the dNN (radius) selection
// operator — given a centre x and radius θ, return every indexed point
// within Lp distance θ — mirroring the indexed selection the paper's
// PostgreSQL substrate performs with a B-tree. Grid is that index. It keeps
// its own copy of the points clustered by cell in flat arrays, so a query
// walks a few contiguous runs of memory, and besides row ids (Radius) it
// reports positions in that clustered order (Scan), which the executor's
// mean and regression use to reduce straight over clustered columns without
// an id list. Grid's visit order — cells as an odometer, ascending row id
// inside a cell, row order for queries wider than the grid — is part of its
// contract: every EXACT answer, and so every training label, is a
// floating-point sum taken in it.
//
// For the model's serving path it provides the read-epoch structures the
// prototype store builds over frozen row copies: the same Grid for
// low-dimensional query spaces and BulkKDTree (bulk-built implicit-layout
// k-d tree) for wide ones. Both answer NearestStale and a radius query
// (Grid.Scan reports candidate positions, BulkKDTree.LeafRuns the leaf spans
// for the caller to test) that stay exact while the live rows drift from
// the indexed copy — every pruning bound is widened by the caller's drift
// slack and what survives is verified by the caller — and both can index a
// sparse slot space through caller ids (NewGridFlatIDs / NewBulkKDTreeIDs,
// which only tests use since the prototype store's slot space became
// dense). A grid epoch's successor is merged from it
// (Grid.Merge) rather than built from scratch. Partition splits a query
// space into the sharding layer's regions. See docs/ARCHITECTURE.md for
// where each structure sits in the read path.
package index

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by index construction and search.
var (
	ErrEmpty     = errors.New("index: no points")
	ErrDimension = errors.New("index: dimension mismatch")
	ErrRadius    = errors.New("index: radius must be non-negative")
	ErrNorm      = errors.New("index: norm must be p >= 1")
)

// checkQuery validates a radius query once, before any point is tested: the
// centre's dimension, the radius, and the norm p, which must be at least 1
// (+Inf is L∞).
func checkQuery(dim int, center []float64, radius, p float64) error {
	if len(center) != dim {
		return fmt.Errorf("%w: query dim %d, index dim %d", ErrDimension, len(center), dim)
	}
	if radius < 0 || math.IsNaN(radius) {
		return fmt.Errorf("%w: %v", ErrRadius, radius)
	}
	if !(p >= 1) {
		return fmt.Errorf("%w: %v", ErrNorm, p)
	}
	return nil
}

package index

import (
	"fmt"
	"math"

	"llmq/internal/vector"
)

// Linear is the brute-force scan: O(n·d) per radius query. It is the
// reference the grid and the k-d tree are tested against.
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

// Len returns the number of indexed points.
func (l *Linear) Len() int { return len(l.pts) }

// Dim returns the dimensionality of the indexed points.
func (l *Linear) Dim() int { return l.dim }

// Radius returns the ids of all points x with ||x - center||_p <= radius, in
// row order.
func (l *Linear) Radius(center []float64, radius float64, p float64) ([]int, error) {
	if err := checkQuery(l.dim, center, radius, p); err != nil {
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

// radiusIndex is what the tests ask of Linear and Grid alike.
type radiusIndex interface {
	Len() int
	Dim() int
	Radius(center []float64, radius float64, p float64) ([]int, error)
}

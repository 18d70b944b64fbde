// Package dataset provides the relation the exact engine answers over: a set
// of (x, u) observations with named attributes, CSV export, and one CSV
// parser that fills the flat arrays the executor indexes (Relation), seen as
// row slices by ReadCSV (Dataset). The parser tokenizes the bytes itself,
// with encoding/csv's grammar, and parses the fields of successive blocks
// of the input on GOMAXPROCS goroutines (csv.go).
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// Errors returned by dataset operations.
var (
	ErrEmpty     = errors.New("dataset: empty dataset")
	ErrDimension = errors.New("dataset: dimension mismatch")
)

// Dataset is an in-memory collection of observations (x, u) where x is a
// d-dimensional input vector and u the scalar output attribute.
type Dataset struct {
	// Name identifies the dataset (e.g. "R1", "R2").
	Name string
	// InputNames holds the d input attribute names.
	InputNames []string
	// OutputName holds the output attribute name.
	OutputName string
	// Xs holds the input vectors; all have dimension len(InputNames).
	Xs [][]float64
	// Us holds the output values; len(Us) == len(Xs).
	Us []float64
}

// New creates an empty dataset with auto-generated attribute names x1..xd
// and output name "u".
func New(name string, dim int) *Dataset {
	names := make([]string, dim)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i+1)
	}
	return &Dataset{Name: name, InputNames: names, OutputName: "u"}
}

// FromPoints builds a dataset from parallel slices of inputs and outputs.
// The slices are used directly (not copied).
func FromPoints(name string, xs [][]float64, us []float64) (*Dataset, error) {
	if len(xs) != len(us) {
		return nil, fmt.Errorf("%w: %d inputs vs %d outputs", ErrDimension, len(xs), len(us))
	}
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	d := len(xs[0])
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("%w: row %d has dim %d, want %d", ErrDimension, i, len(x), d)
		}
	}
	ds := New(name, d)
	ds.Xs = xs
	ds.Us = us
	return ds, nil
}

// Dim returns the input dimensionality.
func (d *Dataset) Dim() int { return len(d.InputNames) }

// Len returns the number of observations.
func (d *Dataset) Len() int { return len(d.Xs) }

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.Xs) != len(d.Us) {
		return fmt.Errorf("%w: %d inputs vs %d outputs", ErrDimension, len(d.Xs), len(d.Us))
	}
	dim := d.Dim()
	for i, x := range d.Xs {
		if len(x) != dim {
			return fmt.Errorf("%w: row %d has dim %d, want %d", ErrDimension, i, len(x), dim)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: row %d attribute %d is not finite (%v)", i, j, v)
			}
		}
		if math.IsNaN(d.Us[i]) || math.IsInf(d.Us[i], 0) {
			return fmt.Errorf("dataset: row %d output is not finite (%v)", i, d.Us[i])
		}
	}
	return nil
}

// Bounds returns, per input attribute, the minimum and maximum observed
// values, along with the output bounds.
type Bounds struct {
	InputMin  []float64
	InputMax  []float64
	OutputMin float64
	OutputMax float64
}

// Bounds computes the attribute-wise bounds of the dataset.
func (d *Dataset) Bounds() (Bounds, error) {
	if d.Len() == 0 {
		return Bounds{}, ErrEmpty
	}
	b := firstBounds(d.Xs[0], d.Us[0])
	for i := 1; i < d.Len(); i++ {
		b.widen(d.Xs[i], d.Us[i])
	}
	return b, nil
}

// firstBounds is the bounds of the one observation (x, u).
func firstBounds(x []float64, u float64) Bounds {
	return Bounds{
		InputMin:  slices.Clone(x),
		InputMax:  slices.Clone(x),
		OutputMin: u,
		OutputMax: u,
	}
}

// widen grows b to take in the observation (x, u).
func (b *Bounds) widen(x []float64, u float64) {
	for j, v := range x {
		if v < b.InputMin[j] {
			b.InputMin[j] = v
		}
		if v > b.InputMax[j] {
			b.InputMax[j] = v
		}
	}
	if u < b.OutputMin {
		b.OutputMin = u
	}
	if u > b.OutputMax {
		b.OutputMax = u
	}
}

// WriteCSV writes the dataset as CSV with a header row (input names then the
// output name).
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), d.InputNames...), d.OutputName)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, d.Dim()+1)
	for i := range d.Xs {
		for j, v := range d.Xs[i] {
			row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		row[d.Dim()] = strconv.FormatFloat(d.Us[i], 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

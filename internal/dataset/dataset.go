// Package dataset provides the in-memory dataset abstraction shared by the
// DBMS substrate, the workload generator and the experiment harness: a set of
// (x, u) observations with named attributes, CSV import/export, min–max
// scaling to the unit cube (the paper scales all real attributes to [0,1]),
// and deterministic splitting.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"unicode/utf8"
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

// Append adds a single observation. The input vector is used directly.
func (d *Dataset) Append(x []float64, u float64) error {
	if len(x) != d.Dim() {
		return fmt.Errorf("%w: got %d, want %d", ErrDimension, len(x), d.Dim())
	}
	d.Xs = append(d.Xs, x)
	d.Us = append(d.Us, u)
	return nil
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Name:       d.Name,
		InputNames: append([]string(nil), d.InputNames...),
		OutputName: d.OutputName,
		Xs:         make([][]float64, len(d.Xs)),
		Us:         append([]float64(nil), d.Us...),
	}
	for i, x := range d.Xs {
		c.Xs[i] = append([]float64(nil), x...)
	}
	return c
}

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
	dim := d.Dim()
	b := Bounds{
		InputMin:  make([]float64, dim),
		InputMax:  make([]float64, dim),
		OutputMin: d.Us[0],
		OutputMax: d.Us[0],
	}
	copy(b.InputMin, d.Xs[0])
	copy(b.InputMax, d.Xs[0])
	for i := 1; i < d.Len(); i++ {
		for j, v := range d.Xs[i] {
			if v < b.InputMin[j] {
				b.InputMin[j] = v
			}
			if v > b.InputMax[j] {
				b.InputMax[j] = v
			}
		}
		if d.Us[i] < b.OutputMin {
			b.OutputMin = d.Us[i]
		}
		if d.Us[i] > b.OutputMax {
			b.OutputMax = d.Us[i]
		}
	}
	return b, nil
}

// Scaler min–max scales inputs (and optionally the output) into [0,1],
// remembering the original bounds so queries and predictions can be mapped
// both ways.
type Scaler struct {
	bounds      Bounds
	scaleOutput bool
}

// FitScaler learns a scaler from the dataset. If scaleOutput is true the
// output attribute is scaled as well.
func FitScaler(d *Dataset, scaleOutput bool) (*Scaler, error) {
	b, err := d.Bounds()
	if err != nil {
		return nil, err
	}
	return &Scaler{bounds: b, scaleOutput: scaleOutput}, nil
}

// Bounds returns the bounds the scaler was fitted on.
func (s *Scaler) Bounds() Bounds { return s.bounds }

// ScaleX maps an input vector into [0,1]^d (in place on a copy).
// Attributes with zero range map to 0.5.
func (s *Scaler) ScaleX(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		lo, hi := s.bounds.InputMin[j], s.bounds.InputMax[j]
		if hi == lo {
			out[j] = 0.5
			continue
		}
		out[j] = (v - lo) / (hi - lo)
	}
	return out
}

// UnscaleX maps a scaled input vector back to the original range.
func (s *Scaler) UnscaleX(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		lo, hi := s.bounds.InputMin[j], s.bounds.InputMax[j]
		out[j] = lo + v*(hi-lo)
	}
	return out
}

// ScaleU maps an output value into [0,1] when output scaling is enabled;
// otherwise it returns u unchanged.
func (s *Scaler) ScaleU(u float64) float64 {
	if !s.scaleOutput {
		return u
	}
	lo, hi := s.bounds.OutputMin, s.bounds.OutputMax
	if hi == lo {
		return 0.5
	}
	return (u - lo) / (hi - lo)
}

// UnscaleU inverts ScaleU.
func (s *Scaler) UnscaleU(u float64) float64 {
	if !s.scaleOutput {
		return u
	}
	lo, hi := s.bounds.OutputMin, s.bounds.OutputMax
	return lo + u*(hi-lo)
}

// Apply returns a new dataset with all observations scaled.
func (s *Scaler) Apply(d *Dataset) *Dataset {
	out := New(d.Name+"-scaled", d.Dim())
	out.InputNames = append([]string(nil), d.InputNames...)
	out.OutputName = d.OutputName
	out.Xs = make([][]float64, d.Len())
	out.Us = make([]float64, d.Len())
	for i := range d.Xs {
		out.Xs[i] = s.ScaleX(d.Xs[i])
		out.Us[i] = s.ScaleU(d.Us[i])
	}
	return out
}

// Split partitions the dataset into two parts, the first containing
// round(frac*Len()) observations, selected by a deterministic shuffle of the
// given seed. frac must lie in (0,1).
func (d *Dataset) Split(frac float64, seed int64) (*Dataset, *Dataset, error) {
	if d.Len() == 0 {
		return nil, nil, ErrEmpty
	}
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("dataset: split fraction %v outside (0,1)", frac)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())
	cut := int(math.Round(frac * float64(d.Len())))
	if cut == 0 {
		cut = 1
	}
	if cut == d.Len() {
		cut = d.Len() - 1
	}
	mk := func(name string, ids []int) *Dataset {
		out := New(name, d.Dim())
		out.InputNames = append([]string(nil), d.InputNames...)
		out.OutputName = d.OutputName
		for _, i := range ids {
			out.Xs = append(out.Xs, d.Xs[i])
			out.Us = append(out.Us, d.Us[i])
		}
		return out
	}
	return mk(d.Name+"-a", idx[:cut]), mk(d.Name+"-b", idx[cut:]), nil
}

// Sample returns a dataset of n observations drawn uniformly without
// replacement (or the full dataset if n >= Len()).
func (d *Dataset) Sample(n int, seed int64) *Dataset {
	if n >= d.Len() {
		return d.Clone()
	}
	idx := rand.New(rand.NewSource(seed)).Perm(d.Len())[:n]
	out := New(d.Name+"-sample", d.Dim())
	out.InputNames = append([]string(nil), d.InputNames...)
	out.OutputName = d.OutputName
	for _, i := range idx {
		out.Xs = append(out.Xs, d.Xs[i])
		out.Us = append(out.Us, d.Us[i])
	}
	return out
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

// ReadCSV reads a dataset written by WriteCSV: a header row of d input names
// plus one output name, followed by numeric rows.
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // every field is parsed or copied before the next Read
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: header must have at least 2 columns, got %d", len(header))
	}
	dim := len(header) - 1
	ds := New(name, dim)
	ds.InputNames = append([]string(nil), header[:dim]...)
	ds.OutputName = strings.TrimSpace(header[dim])
	// Rows are parsed into slabs of slabRows rows, not allocated one by one,
	// and Xs and Us are sized once at the end instead of grown by append.
	var xSlabs, uSlabs [][]float64
	n := 0
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read line %d: %w", line, err)
		}
		if len(rec) != dim+1 {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), dim+1)
		}
		k := n % slabRows
		if k == 0 {
			xSlabs = append(xSlabs, make([]float64, slabRows*dim))
			uSlabs = append(uSlabs, make([]float64, slabRows))
		}
		x := xSlabs[len(xSlabs)-1][k*dim : (k+1)*dim]
		for j := 0; j < dim; j++ {
			v, err := parseField(rec[j])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", line, j+1, err)
			}
			x[j] = v
		}
		u, err := parseField(rec[dim])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d output: %w", line, err)
		}
		uSlabs[len(uSlabs)-1][k] = u
		n++
	}
	if n == 0 {
		return nil, ErrEmpty
	}
	ds.Xs = make([][]float64, n)
	ds.Us = make([]float64, 0, n)
	for i := range ds.Xs {
		k := i % slabRows
		ds.Xs[i] = xSlabs[i/slabRows][k*dim : (k+1)*dim : (k+1)*dim]
	}
	for _, us := range uSlabs {
		ds.Us = append(ds.Us, us[:min(slabRows, n-len(ds.Us))]...)
	}
	return ds, nil
}

const slabRows = 4096

// parseField parses one CSV field as a float64, ignoring surrounding white
// space; a field that starts and ends with a printable ASCII byte — every
// field WriteCSV emits — has none and skips the trim.
func parseField(s string) (float64, error) {
	if n := len(s); n == 0 || s[0] <= ' ' || s[0] >= utf8.RuneSelf || s[n-1] <= ' ' || s[n-1] >= utf8.RuneSelf {
		s = strings.TrimSpace(s)
	}
	return strconv.ParseFloat(s, 64)
}

// Package dataset provides the relation the exact engine answers over: a set
// of (x, u) observations with named attributes, CSV export, and one CSV
// parser that fills the flat arrays the executor indexes (Relation), seen as
// row slices by ReadCSV (Dataset).
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"slices"
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

// Relation is a relation parsed from CSV and held flat, the layout the
// exact executor indexes: row i's inputs are X[i*Dim():(i+1)*Dim()] and its
// output is U[i]. Every value is finite, the attribute names are non-empty
// and unique, and Bounds covers every row.
type Relation struct {
	Name       string
	InputNames []string
	OutputName string
	X          []float64 // row-major inputs, Len()·Dim() values
	U          []float64 // the output column
	Bounds     Bounds
}

// Dim returns the input dimensionality.
func (r *Relation) Dim() int { return len(r.InputNames) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.U) }

// ParseCSV reads a relation written by WriteCSV: a header row of d input
// names plus one output name, followed by numeric rows. It refuses a
// non-finite value, naming its line and field, and an empty or repeated
// attribute name. When rd can report its size (an *os.File), X and U are
// sized once from the length of the first row instead of grown by append.
func ParseCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = true // every field is parsed or copied before the next Read
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: header must have at least 2 columns, got %d", len(header))
	}
	dim := len(header) - 1
	r := &Relation{Name: name, InputNames: slices.Clone(header[:dim]), OutputName: strings.TrimSpace(header[dim])}
	seen := make(map[string]bool, dim+1)
	for j, c := range append(r.InputNames[:dim:dim], r.OutputName) {
		if c == "" {
			return nil, fmt.Errorf("dataset: column %d has an empty name", j+1)
		}
		if seen[c] {
			return nil, fmt.Errorf("dataset: duplicate column %q", c)
		}
		seen[c] = true
	}
	headerEnd := cr.InputOffset()
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
		if line == 2 {
			if rows := estimateRows(rd, headerEnd, cr.InputOffset()); rows > 0 {
				r.X, r.U = make([]float64, 0, rows*dim), make([]float64, 0, rows)
			}
		}
		at := len(r.X)
		for j := 0; j < dim; j++ {
			v, err := parseField(rec[j])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", line, j+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: line %d field %d: value is not finite (%v)", line, j+1, v)
			}
			r.X = append(r.X, v)
		}
		u, err := parseField(rec[dim])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d output: %w", line, err)
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return nil, fmt.Errorf("dataset: line %d output: value is not finite (%v)", line, u)
		}
		r.U = append(r.U, u)
		if x := r.X[at:]; at == 0 {
			r.Bounds = firstBounds(x, u)
		} else {
			r.Bounds.widen(x, u)
		}
	}
	if len(r.U) == 0 {
		return nil, ErrEmpty
	}
	return r, nil
}

// estimateRows guesses how many rows a CSV holds from its size, when rd can
// report one, and the byte offsets where its first data row starts and
// ends; it returns 0 when it cannot tell. The guess carries 1/16 slack, so
// rows a little longer than the first do not make X and U grow.
func estimateRows(rd io.Reader, rowStart, rowEnd int64) int {
	f, ok := rd.(interface{ Stat() (fs.FileInfo, error) })
	if !ok || rowEnd <= rowStart {
		return 0
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return 0
	}
	rows := (fi.Size() - rowStart) / (rowEnd - rowStart)
	return int(rows + rows/16 + 1)
}

// ReadCSV is ParseCSV seen as a Dataset: Xs[i] is row i of the parsed flat
// input array, capped so that appending to one row cannot reach the next.
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	rel, err := ParseCSV(name, r)
	if err != nil {
		return nil, err
	}
	dim := rel.Dim()
	ds := &Dataset{Name: name, InputNames: rel.InputNames, OutputName: rel.OutputName, Xs: make([][]float64, rel.Len()), Us: rel.U}
	for i := range ds.Xs {
		ds.Xs[i] = rel.X[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return ds, nil
}

// parseField parses one CSV field as a float64, ignoring surrounding white
// space; a field that starts and ends with a printable ASCII byte — every
// field WriteCSV emits — has none and skips the trim.
func parseField(s string) (float64, error) {
	if n := len(s); n == 0 || s[0] <= ' ' || s[0] >= utf8.RuneSelf || s[n-1] <= ' ' || s[n-1] >= utf8.RuneSelf {
		s = strings.TrimSpace(s)
	}
	return strconv.ParseFloat(s, 64)
}

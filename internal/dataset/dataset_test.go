package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func sample(t *testing.T, n, dim int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*10 - 5
		}
		us[i] = rng.NormFloat64()
	}
	ds, err := FromPoints("t", xs, us)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewAndAppend(t *testing.T) {
	ds := New("demo", 3)
	if ds.Dim() != 3 || ds.Len() != 0 {
		t.Fatalf("Dim=%d Len=%d", ds.Dim(), ds.Len())
	}
	if ds.InputNames[0] != "x1" || ds.InputNames[2] != "x3" || ds.OutputName != "u" {
		t.Errorf("default names = %v / %q", ds.InputNames, ds.OutputName)
	}
	ds.Xs, ds.Us = append(ds.Xs, []float64{1, 2, 3}), append(ds.Us, 4)
	if ds.Len() != 1 {
		t.Errorf("Len = %d", ds.Len())
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("valid row refused: %v", err)
	}
	ds.Xs, ds.Us = append(ds.Xs, []float64{1}), append(ds.Us, 2)
	if err := ds.Validate(); !errors.Is(err, ErrDimension) {
		t.Errorf("dim mismatch err = %v", err)
	}
}

func TestFromPointsValidation(t *testing.T) {
	if _, err := FromPoints("x", [][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched lengths err = %v", err)
	}
	if _, err := FromPoints("x", nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := FromPoints("x", [][]float64{{1, 2}, {1}}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged err = %v", err)
	}
	ds, err := FromPoints("x", [][]float64{{1, 2}}, []float64{3})
	if err != nil || ds.Dim() != 2 {
		t.Errorf("valid FromPoints: %v %v", ds, err)
	}
}

func TestValidate(t *testing.T) {
	ds := sample(t, 5, 2, 2)
	if err := ds.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	for _, c := range []struct {
		name  string
		spoil func(ds *Dataset)
	}{
		{"length mismatch", func(ds *Dataset) { ds.Us = ds.Us[:len(ds.Us)-1] }},
		{"ragged row", func(ds *Dataset) { ds.Xs[2] = []float64{1} }},
		{"NaN input", func(ds *Dataset) { ds.Xs[0][0] = math.NaN() }},
		{"Inf output", func(ds *Dataset) { ds.Us[0] = math.Inf(1) }},
	} {
		bad := sample(t, 5, 2, 2)
		c.spoil(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s not detected", c.name)
		}
	}
}

func TestBounds(t *testing.T) {
	ds, _ := FromPoints("b", [][]float64{{1, -2}, {3, 0}, {-1, 5}}, []float64{10, -10, 0})
	b, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if b.InputMin[0] != -1 || b.InputMax[0] != 3 || b.InputMin[1] != -2 || b.InputMax[1] != 5 {
		t.Errorf("input bounds = %+v", b)
	}
	if b.OutputMin != -10 || b.OutputMax != 10 {
		t.Errorf("output bounds = %+v", b)
	}
	empty := New("e", 2)
	if _, err := empty.Bounds(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty bounds err = %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := sample(t, 25, 3, 7)
	ds.InputNames = []string{"lon", "lat", "depth"}
	ds.OutputName = "pwave"
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != 3 || back.Len() != 25 {
		t.Fatalf("round trip shape %d x %d", back.Len(), back.Dim())
	}
	if back.InputNames[0] != "lon" || back.OutputName != "pwave" {
		t.Errorf("names lost: %v %q", back.InputNames, back.OutputName)
	}
	for i := range ds.Xs {
		for j := range ds.Xs[i] {
			if math.Abs(ds.Xs[i][j]-back.Xs[i][j]) > 1e-12 {
				t.Fatalf("value drift at %d,%d", i, j)
			}
		}
		if math.Abs(ds.Us[i]-back.Us[i]) > 1e-12 {
			t.Fatalf("output drift at %d", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, c := range csvRefusals {
		_, err := ReadCSV("x", strings.NewReader(c.in))
		if err == nil || err.Error() != c.err {
			t.Errorf("%s: error %v, want %q", c.name, err, c.err)
		}
	}
}

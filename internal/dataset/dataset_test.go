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

func TestCloneIndependence(t *testing.T) {
	ds := sample(t, 10, 2, 1)
	c := ds.Clone()
	c.Xs[0][0] = 999
	c.Us[0] = 999
	if ds.Xs[0][0] == 999 || ds.Us[0] == 999 {
		t.Error("Clone must deep-copy")
	}
}

func TestValidate(t *testing.T) {
	ds := sample(t, 5, 2, 2)
	if err := ds.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := ds.Clone()
	bad.Us = bad.Us[:len(bad.Us)-1]
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch not detected")
	}
	bad2 := ds.Clone()
	bad2.Xs[2] = []float64{1}
	if err := bad2.Validate(); err == nil {
		t.Error("ragged row not detected")
	}
	bad3 := ds.Clone()
	bad3.Xs[0][0] = math.NaN()
	if err := bad3.Validate(); err == nil {
		t.Error("NaN input not detected")
	}
	bad4 := ds.Clone()
	bad4.Us[0] = math.Inf(1)
	if err := bad4.Validate(); err == nil {
		t.Error("Inf output not detected")
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

func TestSplit(t *testing.T) {
	ds := sample(t, 100, 2, 5)
	a, b, err := ds.Split(0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len()+b.Len() != 100 {
		t.Fatalf("split sizes %d + %d != 100", a.Len(), b.Len())
	}
	if a.Len() != 70 {
		t.Errorf("first part = %d, want 70", a.Len())
	}
	// Deterministic for the same seed.
	a2, _, _ := ds.Split(0.7, 9)
	for i := range a.Us {
		if a.Us[i] != a2.Us[i] {
			t.Fatal("split is not deterministic")
		}
	}
	if _, _, err := ds.Split(0, 1); err == nil {
		t.Error("frac=0 should be rejected")
	}
	if _, _, err := ds.Split(1, 1); err == nil {
		t.Error("frac=1 should be rejected")
	}
	empty := New("e", 2)
	if _, _, err := empty.Split(0.5, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty split err = %v", err)
	}
	// Tiny datasets never produce an empty side.
	tiny, _ := FromPoints("tiny", [][]float64{{1}, {2}}, []float64{1, 2})
	x, y, err := tiny.Split(0.01, 3)
	if err != nil || x.Len() == 0 || y.Len() == 0 {
		t.Errorf("tiny split = %d/%d, %v", x.Len(), y.Len(), err)
	}
	x, y, err = tiny.Split(0.99, 3)
	if err != nil || x.Len() == 0 || y.Len() == 0 {
		t.Errorf("tiny split hi = %d/%d, %v", x.Len(), y.Len(), err)
	}
}

func TestSample(t *testing.T) {
	ds := sample(t, 50, 2, 6)
	s := ds.Sample(10, 1)
	if s.Len() != 10 {
		t.Errorf("sample size = %d", s.Len())
	}
	full := ds.Sample(500, 1)
	if full.Len() != 50 {
		t.Errorf("oversampling should return the whole dataset, got %d", full.Len())
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

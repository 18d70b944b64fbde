package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTripBits writes values that need all 17 significant digits —
// plus the edges of the float64 range — and requires ReadCSV to return the
// same bits. Every row must keep its own storage: the rows are slices of one
// flat array, and appending to one may not reach into its neighbour.
func TestCSVRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0.1 + 0.2, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), -1e-310, 5e-324, 123456789.12345679}
	xs, us := make([][]float64, 4196), make([]float64, 4196)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64() * 1e6, math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)), rng.Float64()}
		if i < len(special) {
			xs[i][0] = special[i]
		}
		us[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
	}
	ds, err := FromPoints("bits", xs, us)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("bits", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() || back.Dim() != ds.Dim() {
		t.Fatalf("read back %d×%d, wrote %d×%d", back.Len(), back.Dim(), ds.Len(), ds.Dim())
	}
	for i := range ds.Xs {
		for j := range ds.Xs[i] {
			if math.Float64bits(back.Xs[i][j]) != math.Float64bits(ds.Xs[i][j]) {
				t.Fatalf("row %d attribute %d: wrote %v, read %v", i, j, ds.Xs[i][j], back.Xs[i][j])
			}
		}
		if math.Float64bits(back.Us[i]) != math.Float64bits(ds.Us[i]) {
			t.Fatalf("row %d output: wrote %v, read %v", i, ds.Us[i], back.Us[i])
		}
	}
	next := back.Xs[1][0]
	_ = append(back.Xs[0], 99)
	if back.Xs[1][0] != next {
		t.Fatal("appending to row 0 overwrote row 1: rows share capacity")
	}
}

// TestParseFieldTrimsLikeTrimSpace checks the trim shortcut changes nothing:
// value and error text equal strconv.ParseFloat(strings.TrimSpace(s)).
func TestParseFieldTrimsLikeTrimSpace(t *testing.T) {
	for _, s := range []string{
		"1.5", "-2e-3", " 1.5", "1.5 ", "\t1.5\r", " 1.5 ", "1.5", "1.5 ",
		"", " ", "abc", " abc ", "1.5x", "é", "+Inf", "NaN", "0x1p-2", "1_000",
	} {
		got, gotErr := parseField(s)
		want, wantErr := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if math.Float64bits(got) != math.Float64bits(want) || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("parseField(%q) = (%v, %v), want (%v, %v)", s, got, gotErr, want, wantErr)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs, us := make([][]float64, 200000), make([]float64, 200000)
	for i := range xs {
		xs[i], us[i] = []float64{rng.Float64(), rng.Float64()}, rng.NormFloat64()
	}
	ds, err := FromPoints("bench", xs, us)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV("bench", bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseCSVSizesFromFile checks that a parse from a file sizes X and U
// once from the first row: rows of one length fill exactly the estimate,
// its 1/16 slack included, with no growth.
func TestParseCSVSizesFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.csv")
	var b strings.Builder
	b.WriteString("a,b,u\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "0.%03d,1.%03d,2.%03d\n", i, i, i)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := ParseCSV("r", f)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 + 1000/16 + 1
	if r.Len() != 1000 || cap(r.U) != want || cap(r.X) != 2*want {
		t.Errorf("Len %d, cap(U) %d, cap(X) %d; want 1000, %d, %d", r.Len(), cap(r.U), cap(r.X), want, 2*want)
	}
	if r.X[2*999+1] != 1.999 || r.U[999] != 2.999 {
		t.Errorf("last row = %v, %v", r.X[2*999:], r.U[999])
	}
}

// csvRefusals are inputs the parser must refuse, each with the error it
// must give: non-finite values name their line and field, bad names their
// column. TestReadCSVErrors runs them, and they seed FuzzReadCSV.
var csvRefusals = []struct{ name, in, err string }{
	{"NaN field", "x1,x2,u\n0.1,NaN,1\n", "dataset: line 2 field 2: value is not finite (NaN)"},
	{"Inf output", "x1,x2,u\n0.1,0.2,-Inf\n", "dataset: line 2 output: value is not finite (-Inf)"},
	{"out of range", "x1,x2,u\n1e400,0.2,1\n", `dataset: line 2 field 1: strconv.ParseFloat: parsing "1e400": value out of range`},
	{"duplicate name", "x,x,u\n0.1,0.2,1\n", `dataset: duplicate column "x"`},
	{"output repeats an input", "x,y, x \n0.1,0.2,1\n", `dataset: duplicate column "x"`},
	{"empty name", "x1,,u\n0.1,0.2,1\n", "dataset: column 2 has an empty name"},
	{"short row", "x1,x2,u\n0.1,0.2,1\n0.3,0.4\n", "dataset: read line 3: record on line 3: wrong number of fields"},
	{"header only", "x1,x2,u\n", "dataset: empty dataset"},
	{"empty file", "", "dataset: read header: EOF"},
	{"one column", "u\n1\n", "dataset: header must have at least 2 columns, got 1"},
	{"bad number", "x1,x2,u\n0.1,zap,1\n", `dataset: line 2 field 2: strconv.ParseFloat: parsing "zap": invalid syntax`},
	{"bad output", "x1,x2,u\n0.1,0.2,zap\n", `dataset: line 2 output: strconv.ParseFloat: parsing "zap": invalid syntax`},
}

// FuzzReadCSV feeds the parser arbitrary bytes. It may refuse them, but
// never panics, and what it accepts is a well-formed relation: finite
// values, Len·Dim inputs, non-empty unique names, Bounds covering every
// row, ReadCSV's view agreeing, and a WriteCSV → parse round trip that
// keeps every name and every bit.
func FuzzReadCSV(f *testing.F) {
	for _, c := range csvRefusals {
		f.Add([]byte(c.in))
	}
	f.Add([]byte("x1,x2,u\n0.5,-1e-300,3\n1,2,-0\n"))
	f.Add([]byte("\" a\",b , u\n 1 ,2\t,\"3\"\r\n4,5,6\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ParseCSV("f", bytes.NewReader(in))
		if err != nil {
			return
		}
		d := r.Dim()
		if d < 1 || r.Len() < 1 || len(r.X) != r.Len()*d {
			t.Fatalf("shape: Dim %d, Len %d, %d inputs", d, r.Len(), len(r.X))
		}
		seen := map[string]bool{}
		for _, n := range append(slices.Clone(r.InputNames), r.OutputName) {
			if n == "" || seen[n] {
				t.Fatalf("names %q / %q", r.InputNames, r.OutputName)
			}
			seen[n] = true
		}
		for _, v := range append(slices.Clone(r.X), r.U...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %v", v)
			}
		}
		ds, err := ReadCSV("f", bytes.NewReader(in))
		if err != nil {
			t.Fatalf("ParseCSV accepted what ReadCSV refuses: %v", err)
		}
		if b, err := ds.Bounds(); err != nil || !reflect.DeepEqual(b, r.Bounds) {
			t.Fatalf("Bounds %+v, the dataset's %+v (%v)", r.Bounds, b, err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ParseCSV("f", &buf)
		if err != nil {
			t.Fatalf("round trip refused: %v", err)
		}
		if !slices.Equal(back.InputNames, r.InputNames) || back.OutputName != r.OutputName {
			t.Fatalf("names %q / %q came back %q / %q", r.InputNames, r.OutputName, back.InputNames, back.OutputName)
		}
		if !slices.Equal(bitsOf(back.X), bitsOf(r.X)) || !slices.Equal(bitsOf(back.U), bitsOf(r.U)) {
			t.Fatal("round trip changed a value's bits")
		}
	})
}

func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

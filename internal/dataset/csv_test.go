package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
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
		// both paths of decimal.Parse: plain decimals it converts, and the
		// shapes it hands to strconv
		"0.6046602879796196", "-0.000123", "0.500000", "9007199254740993", "2.2250738585072011e-308",
		"4.9e-324", "1e-400", "1e23", "-0", "0e999", "12345678901234567890", "1234567890123456789012345",
		"1e65", "1e-65", " 1e400", ".5", "+1", "1.", "Inf", "0x1p-2", "1_0",
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

// TestParseCSVTrimsNames checks every attribute name loses its surrounding
// white space, inputs as well as the output, so a header written with
// spaces after its commas names the columns a statement spells.
func TestParseCSVTrimsNames(t *testing.T) {
	r, err := ParseCSV("r", strings.NewReader("x1, x2,\" x3\", u\n0.1,0.2,0.3,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x1", "x2", "x3"}; !slices.Equal(r.InputNames, want) || r.OutputName != "u" {
		t.Errorf("names %q / %q, want %q / \"u\"", r.InputNames, r.OutputName, want)
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
	{"blank name", "x1, ,u\n0.1,0.2,1\n", "dataset: column 2 has an empty name"},
	{"input repeats an input", "x, y, x \n0.1,0.2,1\n", `dataset: duplicate column "x"`},
	{"short row", "x1,x2,u\n0.1,0.2,1\n0.3,0.4\n", "dataset: read line 3: record on line 3: wrong number of fields"},
	{"header only", "x1,x2,u\n", "dataset: empty dataset"},
	{"empty file", "", "dataset: read header: EOF"},
	{"one column", "u\n1\n", "dataset: header must have at least 2 columns, got 1"},
	{"bad number", "x1,x2,u\n0.1,zap,1\n", `dataset: line 2 field 2: strconv.ParseFloat: parsing "zap": invalid syntax`},
	{"bad output", "x1,x2,u\n0.1,0.2,zap\n", `dataset: line 2 output: strconv.ParseFloat: parsing "zap": invalid syntax`},
	{"after blank lines", "x1,x2,u\n\n0.5,0.5,1\n\n0.4,NaN,2\n", "dataset: line 5 field 2: value is not finite (NaN)"},
	{"after a quoted newline", "x1,x2,u\n\"0.5\n\",0.5,1\n0.4,zap,2\n", `dataset: line 4 field 2: strconv.ParseFloat: parsing "zap": invalid syntax`},
	{"inside a record after a quoted newline", "x1,x2,u\n\"0.5\r\n\",NaN,1\n", "dataset: line 3 field 2: value is not finite (NaN)"},
	{"bare quote", "x1,x2,u\n0.1,0\"2,1\n", `dataset: read line 2: parse error on line 2, column 6: bare " in non-quoted-field`},
	{"text after a closing quote", "x1,x2,u\n\"0.1\"x,2,1\n", `dataset: read line 2: parse error on line 2, column 5: extraneous or missing " in quoted-field`},
	{"unterminated quote", "x1,x2,u\n1,2,\"3\n\n", `dataset: read line 2: record on line 2; parse error on line 3, column 2: extraneous or missing " in quoted-field`},
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

// referenceParseCSV is ParseCSV as encoding/csv parses it, one record at a
// time on the calling goroutine: the parser FuzzParseCSVMatchesReference
// holds the block tokenizer to. A field's line is csv.Reader.FieldPos's, a
// malformed record's the line it starts on.
func referenceParseCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: header must have at least 2 columns, got %d", len(header))
	}
	header = slices.Clone(header)
	for j, c := range header {
		header[j] = strings.TrimSpace(c)
	}
	dim := len(header) - 1
	r := &Relation{Name: name, InputNames: header[:dim], OutputName: header[dim]}
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
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return nil, fmt.Errorf("dataset: read line %d: %w", pe.StartLine, err)
		}
		if err != nil {
			return nil, err
		}
		at := len(r.X)
		for j := 0; j < dim; j++ {
			line, _ := cr.FieldPos(j)
			v, err := parseField(rec[j])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", line, j+1, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: line %d field %d: value is not finite (%v)", line, j+1, v)
			}
			r.X = append(r.X, v)
		}
		line, _ := cr.FieldPos(dim)
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

// checkMatchesReference parses in with blocks of size bytes and requires
// the reference's decision, error text, names, and values and Bounds to
// the bit.
func checkMatchesReference(t *testing.T, in []byte, size int) {
	t.Helper()
	want, wantErr := referenceParseCSV("f", bytes.NewReader(in))
	got, err := parseCSV("f", bytes.NewReader(in), size)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("block size %d: error %v, the reference's %v", size, err, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got.InputNames, want.InputNames) || got.OutputName != want.OutputName {
		t.Fatalf("block size %d: names %q / %q, the reference's %q / %q", size, got.InputNames, got.OutputName, want.InputNames, want.OutputName)
	}
	gb, wb := got.Bounds, want.Bounds
	for _, c := range [][2][]float64{
		{got.X, want.X}, {got.U, want.U}, {gb.InputMin, wb.InputMin}, {gb.InputMax, wb.InputMax},
		{{gb.OutputMin, gb.OutputMax}, {wb.OutputMin, wb.OutputMax}},
	} {
		if !slices.Equal(bitsOf(c[0]), bitsOf(c[1])) {
			t.Fatalf("block size %d: %v, the reference's %v", size, c[0], c[1])
		}
	}
}

// csvCuts are inputs whose records, quotes and "\r\n" pairs a cut can
// split, each with a block size that splits them: they seed
// FuzzParseCSVMatchesReference, and TestParseCSVMatchesReferenceAtEveryBlockSize
// runs them at every size.
var csvCuts = []struct {
	in   string
	size uint8
}{
	{"x1,x2,u\r\n0.25,0.5,1\r\n0.75,-0.5,2\r\n", 18},         // a "\r\n" split by the cut
	{"x1,x2,u\n\"0.25\n\",0.5,\"1\"\"\"\n0.75,-0.5,2\n", 11}, // a quoted newline across a cut
	{"x1,x2,u\n0.25,0.5,1\n0.75,-0.5,2", 9},                  // no final newline
	{"x1,x2,u\n0.25,0.5,1\n0.75,-0.5,2\n", 31},               // exactly one block
	{"x1,x2,u\n0.25,zap,1\n0.75,-0.5,2\n0.5,0.5,NaN\n", 9},   // errors in two blocks
	{"\" a\",b , u\n 1 ,2\t,\"3\"\r\n4,5,6\n", 5},
	{"x1,x2,u\n\n\n0.25,0.5,1\n\r\n0.75,-0.5,2\r", 10},
	{"x1,x2,u\n1,2,\"3\n\r", 3},
	{"x1,x2,u\n1,2,\"3\"\"\r\n", 4},
	{"x1,x2,u\n1,2,\"3\"\r4\n", 13},
}

// FuzzParseCSVMatchesReference runs the block tokenizer at block sizes of
// 1 to 97 bytes, so records, quotes and "\r\n" pairs fall across cuts, and
// requires encoding/csv's answer (referenceParseCSV) every time.
func FuzzParseCSVMatchesReference(f *testing.F) {
	for _, c := range csvRefusals {
		f.Add([]byte(c.in), uint8(len(c.in)/2))
	}
	for _, c := range csvCuts {
		f.Add([]byte(c.in), c.size)
	}
	f.Fuzz(func(t *testing.T, in []byte, size uint8) {
		checkMatchesReference(t, in, 1+int(size)%97)
	})
}

// TestParseCSVMatchesReferenceAtEveryBlockSize runs every refusal and cut
// at every block size up to 97 bytes and at the default.
func TestParseCSVMatchesReferenceAtEveryBlockSize(t *testing.T) {
	var ins []string
	for _, c := range csvRefusals {
		ins = append(ins, c.in)
	}
	for _, c := range csvCuts {
		ins = append(ins, c.in)
	}
	for _, in := range ins {
		for size := 1; size <= 97; size++ {
			checkMatchesReference(t, []byte(in), size)
		}
		checkMatchesReference(t, []byte(in), blockSize)
	}
}

// TestParseCSVReadError checks that a failing reader is refused with its
// error, after the header or inside it, naming the line reading stopped at.
func TestParseCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct{ in, err string }{
		{"x1,x2,u\n0.5,0.5,1\n", "dataset: read line 3: boom"},
		{"x1,x2,u\n0.5,0.5,1\n0.4,0.", "dataset: read line 3: boom"},
		{"x1,x2", "dataset: read header: boom"},
	} {
		for _, size := range []int{4, blockSize} {
			_, err := parseCSV("r", io.MultiReader(strings.NewReader(c.in), iotest.ErrReader(boom)), size)
			if !errors.Is(err, boom) || err.Error() != c.err {
				t.Errorf("%q, block size %d: error %v, want %q", c.in, size, err, c.err)
			}
		}
	}
}

// TestParseCSVRefusalStopsEveryGoroutine refuses an input of a few
// thousand blocks in one of its first, while the reader waits for a free
// block and the workers have blocks queued, and requires that no parser
// goroutine is left running.
func TestParseCSVRefusalStopsEveryGoroutine(t *testing.T) {
	var b strings.Builder
	b.WriteString("x1,x2,u\n")
	for i := 0; i < 20000; i++ {
		if i == 5 {
			b.WriteString("0.5,NaN,1\n")
		}
		fmt.Fprintf(&b, "0.%d,0.5,1\n", i)
	}
	_, err := parseCSV("r", strings.NewReader(b.String()), 64)
	if err == nil || err.Error() != "dataset: line 7 field 2: value is not finite (NaN)" {
		t.Fatalf("error %v", err)
	}
	// ParseCSV waits for its goroutines, but one may still be returning
	// from its last call when the wait ends.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "dataset.(*parser)") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a parser goroutine outlived ParseCSV:\n%s", stacks)
		}
	}
}

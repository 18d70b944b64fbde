package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTripBits writes values that need all 17 significant digits —
// plus the edges of the float64 range — and requires ReadCSV to return the
// same bits. The row count crosses a slab boundary, and every row must keep
// its own storage: appending to one may not reach into its neighbour.
func TestCSVRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := New("bits", 3)
	special := []float64{0.1 + 0.2, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1), -1e-310, 5e-324, 123456789.12345679}
	for i := 0; i < slabRows+100; i++ {
		x := []float64{rng.NormFloat64() * 1e6, math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)), rng.Float64()}
		if i < len(special) {
			x[0] = special[i]
		}
		if err := ds.Append(x, rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(600)-300))); err != nil {
			t.Fatal(err)
		}
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
	ds := New("bench", 2)
	for i := 0; i < 200000; i++ {
		_ = ds.Append([]float64{rng.Float64(), rng.Float64()}, rng.NormFloat64())
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

package decimal

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// agree fails t unless Parse, on s as a string and as bytes, gives the bits
// and the error text of strconv.ParseFloat.
func agree(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	same := func(got float64, err error) bool {
		return math.Float64bits(got) == math.Float64bits(want) && (err == nil) == (wantErr == nil) &&
			(err == nil || err.Error() == wantErr.Error())
	}
	if got, err := Parse(s); !same(got, err) || !same(Parse([]byte(s))) {
		t.Fatalf("Parse(%q) = (%v [%#x], %v), strconv gives (%v [%#x], %v)",
			s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
	}
}

// edges are FuzzDecimal's seeds at each border of the one-pass path:
// exact-path and Eisel–Lemire limits, the halfway case, subnormals and
// overflow, digit counts 19/20/25, an exponent one past each end of the
// table and past 9999, and the grammar strconv accepts or refuses that the
// reader hands over.
var edges = []string{
	"9007199254740993", "9007199254740992", "2.2250738585072011e-308", "4.9e-324", "1e-400",
	"1e23", "8.41e21", "-0", "0", "0e999", "-0e-999", "0.000", "1e308", "1e309", "1.7976931348623157e308",
	"1234567890123456789", "12345678901234567890", "1234567890123456789012345", "0.0000012345678901234567",
	"1e64", "1e65", "1e-64", "1e-65", "9999999999999999999e64", "1e-83", "1e10000", "1e9999", "1e+05",
	".5", "+1", "1.", "1.e5", "-", "", ".", "e5", "1e", "1e+", "1e-", "1.2.3", "Inf", "-Inf", "NaN",
	"0x1p-2", "1_0", "1e1_0", "00", "007.5", "1E5", " 1", "1 ", "-.5", "--1",
	"0.1", "0.2", "0.3", "3.14159", "-123.456e-7", "2.5e-1", "5e-324", "1e-22", "1e22", "1e37", "1e38",
}

// TestParseEveryTableRow parses 1 000 random mantissas of 1 to 19 digits at
// every exponent the table covers, and pins three rows to the constants of
// Go's strconv/eisel_lemire.go.
func TestParseEveryTableRow(t *testing.T) {
	for _, c := range []struct {
		q      int
		lo, hi uint64
	}{
		{-3, 0x645A1CAC083126E9, 0x83126E978D4FDF3B},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
	} {
		if got := pow10[c.q-minExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("row 1e%d = {%#x, %#x}, strconv has {%#x, %#x}", c.q, got[0], got[1], c.lo, c.hi)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for q := minExp10; q <= maxExp10; q++ {
		for range 1000 {
			man := rng.Uint64() >> rng.Intn(64)
			if man > 9999999999999999999 {
				man /= 10
			}
			agree(t, strconv.FormatUint(man, 10)+"e"+strconv.Itoa(q))
		}
	}
}

// FuzzDecimal holds Parse to strconv.ParseFloat for any bytes. The seeds are
// the workloads' shapes — 'g', -1 shortest round trips (CSV fields, /train
// numbers) and 'f', 6 SQL literals — and the edges above.
func FuzzDecimal(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for range 16 {
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		f.Add([]byte(strconv.FormatFloat(x, 'g', -1, 64)))
		f.Add([]byte(strconv.FormatFloat(x, 'f', 6, 64)))
	}
	for _, s := range edges {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		agree(t, string(b))
	})
}

// BenchmarkDecimal times Parse beside strconv.ParseFloat on the two
// workload shapes and on a 20-digit mantissa Parse hands to strconv.
func BenchmarkDecimal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	shapes := map[string][]string{}
	for range 1024 {
		x := rng.Float64()
		shapes["shortest"] = append(shapes["shortest"], strconv.FormatFloat(x, 'g', -1, 64))
		shapes["sql"] = append(shapes["sql"], strconv.FormatFloat(x, 'f', 6, 64))
		shapes["20digit"] = append(shapes["20digit"], strconv.FormatFloat(1+x, 'f', 19, 64))
	}
	for _, shape := range []string{"shortest", "sql", "20digit"} {
		in := shapes[shape]
		for _, p := range []struct {
			name  string
			parse func(string) (float64, error)
		}{{"decimal", Parse[string]}, {"strconv", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }}} {
			b.Run(shape+"/"+p.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.parse(in[i%len(in)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

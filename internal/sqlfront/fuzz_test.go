package sqlfront

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzParse feeds the parser arbitrary text — it is the one parser in the
// system fed untrusted input, straight from /query bodies. It must never
// panic; a statement it accepts must carry numbers the executors and the
// model can take at face value (a finite non-negative radius, finite
// coordinates, a norm p ≥ 1), and parsing is a pure function of the text.
// And every identifier Lex reads is classified as strings.ToUpper decides:
// a keyword, spelled strings.ToUpper(text), exactly when
// keywords[strings.ToUpper(text)], whatever bytes past ASCII it holds.
// Every number an accepted statement carries has the bits
// strconv.ParseFloat gives its literal.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT AVG(u) FROM seismic WITHIN 0.2 OF (0.5, 0.25);",
		"SELECT APPROX AVG(u) FROM t WITHIN 1 OF (0)",
		"SELECT EXACT AVG(u) FROM t WITHIN 1 OF (0)",
		"SELECT REGRESSION(pwave ON lon, lat) FROM seismic WITHIN 0.3 OF (0.1, 0.9) NORM L2",
		"SELECT REGRESSION(u) FROM t WITHIN 0.5 OF (0, 0, 0)",
		"SELECT REGRESSION(u ON *) FROM t WITHIN 0.5 OF (0, 0, 0)",
		"SELECT APPROX VALUE(u) FROM t AT (0.3, 0.4) WITHIN 0.2 OF (0.3, 0.4)",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM L1",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM LINF",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM 3",
		"  select   approx   avg ( u )   from   t   within   0.5   of  ( 1 , 2 )  ",
		"SELECT AVG(u) FROM t WITHIN 2.5 OF (1, 2, 3, 4, 5, 6, 7, 8)",
		"SELECT AVG(u) FROM t WITHIN 1e308 OF (-1e308, 1e-320)",
		"SELECT AVG(u) FROM t WITHIN 1e999 OF (1e999) NORM 1e999",
		"",
		"INSERT INTO t VALUES (1)",
		"SELECT AVG(u) FROM t WITHIN -1 OF (0)",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0,)",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM 0.5",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) ; extra",
		"SELECT VALUE(u) FROM t WITHIN 1 OF (0)",
		"Select Approx Value(u) From t At (0) Within 1 Of (0) Norm l1",
		"sElEcT eXaCt ReGrEsSiOn(u oN x) fRoM t wItHiN 1 oF (0) ; predict",
		"SELECT AVG(u) FROM regressions WITHIN 1 OF (0)",
		"SELECT AVG(\xc3\xa9t\xc3\xa9) FROM \xb5\xaa\xba WITHIN 1 OF (0)",
		"select avg(u) from t within 1 of (0) norm Linf",
		// decimal.Parse's fallback shapes, beside the 'f', 6 literals it converts
		"SELECT AVG(u) FROM t WITHIN 0.100000 OF (0.500000, -0.250000) NORM 3.000000",
		"SELECT AVG(u) FROM t WITHIN 4.9e-324 OF (9007199254740993, 2.2250738585072011e-308, 1e23, -0, 0e999)",
		"SELECT AVG(u) FROM t WITHIN 12345678901234567890 OF (1234567890123456789012345, 1e65, 1e-65, 1e-400)",
		"SELECT VALUE(u) FROM t AT (.5, +1) WITHIN 1. OF (1.) NORM 1e1",
		"SELECT AVG(u) FROM t WITHIN Inf OF (0x1p-2, 1_0)",
	} {
		f.Add(seed)
	}
	for kw := range keywords {
		f.Add(strings.ToLower(kw) + " " + kw + " " + kw[:1] + strings.ToLower(kw[1:]) + " " + kw + "S")
	}
	finite := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	isIdent := func(c byte) bool {
		return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_'
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if tokens, err := Lex(sql); err == nil {
			for _, tok := range tokens {
				if tok.Kind != TokenIdent && tok.Kind != TokenKeyword {
					continue
				}
				end := tok.Pos - 1
				for end < len(sql) && isIdent(sql[end]) {
					end++
				}
				text := sql[tok.Pos-1 : end]
				up := strings.ToUpper(text)
				if want := keywords[up]; (tok.Kind == TokenKeyword) != want ||
					(want && tok.Text != up) || (!want && tok.Text != text) {
					t.Fatalf("Lex(%q) read %q as %v %q; strings.ToUpper gives %q, a keyword: %v",
						sql, text, tok.Kind, tok.Text, up, want)
				}
			}
		}
		stmt, err := Parse(sql)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned a statement beside error %v", sql, err)
			}
			return
		}
		if !(stmt.Theta >= 0) || math.IsInf(stmt.Theta, 0) {
			t.Fatalf("Parse(%q) accepted radius %v", sql, stmt.Theta)
		}
		if len(stmt.Center) == 0 || !finite(stmt.Center) || !finite(stmt.At) {
			t.Fatalf("Parse(%q) accepted centre %v, point %v", sql, stmt.Center, stmt.At)
		}
		if !(stmt.Norm >= 1) {
			t.Fatalf("Parse(%q) accepted norm %v", sql, stmt.Norm)
		}
		tokens, _ := Lex(sql)
		want := literals(tokens)
		if _, named := want["NORM"]; !named {
			want["NORM"] = []float64{stmt.Norm}
		}
		for kw, got := range map[string][]float64{"WITHIN": {stmt.Theta}, "OF": stmt.Center, "AT": stmt.At, "NORM": {stmt.Norm}} {
			if len(got) != len(want[kw]) {
				t.Fatalf("Parse(%q) read %d numbers after %s, strconv %d", sql, len(got), kw, len(want[kw]))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[kw][i]) {
					t.Fatalf("Parse(%q) read %v after %s, strconv %v", sql, got, kw, want[kw])
				}
			}
		}
		again, err := Parse(sql)
		if err != nil || !reflect.DeepEqual(stmt, again) {
			t.Fatalf("Parse(%q) is not deterministic: %+v, then %+v (%v)", sql, stmt, again, err)
		}
	})
}

// literals reads, beside the parser, the numbers that follow each keyword
// of a statement — WITHIN θ, OF (…), AT (…), NORM p — through
// strconv.ParseFloat, the reference of the parser's number reader.
func literals(tokens []Token) map[string][]float64 {
	out := map[string][]float64{}
	for i, tok := range tokens {
		if tok.Kind != TokenKeyword {
			continue
		}
		for _, next := range tokens[i+1:] {
			if next.Kind == TokenLParen || next.Kind == TokenComma {
				continue
			}
			if next.Kind != TokenNumber {
				break
			}
			v, _ := strconv.ParseFloat(next.Text, 64)
			out[tok.Text] = append(out[tok.Text], v)
		}
	}
	return out
}

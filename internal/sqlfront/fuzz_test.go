package sqlfront

import (
	"math"
	"reflect"
	"testing"
)

// FuzzParse feeds the parser arbitrary text — it is the one parser in the
// system fed untrusted input, straight from /query bodies. It must never
// panic; a statement it accepts must carry numbers the executors and the
// model can take at face value (a finite non-negative radius, finite
// coordinates, a norm p ≥ 1), and parsing is a pure function of the text.
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
	} {
		f.Add(seed)
	}
	finite := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, sql string) {
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
		again, err := Parse(sql)
		if err != nil || !reflect.DeepEqual(stmt, again) {
			t.Fatalf("Parse(%q) is not deterministic: %+v, then %+v (%v)", sql, stmt, again, err)
		}
	})
}

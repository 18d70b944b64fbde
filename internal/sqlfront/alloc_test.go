//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates.

package sqlfront

import "testing"

// TestParseAllocs bounds what parsing costs the heap on the three statement
// shapes the served workloads send: the tokens lexed into the parser's
// stack, no allocation to classify an upper-case keyword, and the centre and
// AT vectors sized before they are filled, so what is left is the Statement
// and its vectors. 11.67 allocations per statement (mean of the three) with
// a token slice grown by append and strings.ToUpper per identifier, 2.33
// now; the bound sits halfway.
func TestParseAllocs(t *testing.T) {
	sqls := []string{
		"SELECT APPROX AVG(u) FROM r1 WITHIN 0.102345 OF (0.4231, 0.7719)",
		"SELECT APPROX VALUE(u) FROM r1 AT (0.4301, 0.7702) WITHIN 0.098812 OF (0.4231, 0.7719)",
		"SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.121003 OF (0.1187, 0.5532)",
	}
	total := 0.0
	for _, sql := range sqls {
		if _, err := Parse(sql); err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		total += testing.AllocsPerRun(200, func() { _, _ = Parse(sql) })
	}
	const bound = 7.0
	if got := total / float64(len(sqls)); got > bound {
		t.Fatalf("Parse allocates %.2f objects per statement, bound %.1f", got, bound)
	} else {
		t.Logf("%.2f allocations per statement", got)
	}
}

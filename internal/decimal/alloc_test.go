//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates.

package decimal

import "testing"

// TestDecimalParseAllocs checks Parse allocates nothing, on the one-pass
// path or on a fallback strconv converts, whether it reads a string or
// bytes.
func TestDecimalParseAllocs(t *testing.T) {
	for _, s := range []string{"0.6046602879796196", "12345678901234567890"} {
		b := []byte(s)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Parse(s); err != nil {
				t.Fatal(err)
			}
			if _, err := Parse(b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Parse(%q) makes %v allocations, want 0", s, n)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"llmq/internal/dataset"
	"llmq/internal/synth"
)

// TestLoadRefusesMalformedRelations runs loadExecutor and `llmq query -data`
// on CSVs the relation may not hold. Each must be refused with the parser's
// error, which names the line and field or the column at fault.
func TestLoadRefusesMalformedRelations(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, csv, err string }{
		{"NaN field", "x1,x2,u\n0.5,0.5,1\n0.4,NaN,2\n", "dataset: line 3 field 2: value is not finite (NaN)"},
		{"NaN after blank lines", "x1,x2,u\n\n0.5,0.5,1\n\n0.4,NaN,2\n", "dataset: line 5 field 2: value is not finite (NaN)"},
		{"Inf field", "x1,x2,u\n+Inf,0.5,1\n", "dataset: line 2 field 1: value is not finite (+Inf)"},
		{"1e400", "x1,x2,u\n0.5,0.5,1e400\n", `dataset: line 2 output: strconv.ParseFloat: parsing "1e400": value out of range`},
		{"duplicate name", "x,x,u\n0.5,0.5,1\n", `dataset: duplicate column "x"`},
		{"empty name", "x1,,u\n0.5,0.5,1\n", "dataset: column 2 has an empty name"},
		{"short row", "x1,x2,u\n0.5,0.5,1\n0.5,0.5\n", "dataset: read line 3: record on line 3: wrong number of fields"},
		{"header only", "x1,x2,u\n", "dataset: empty dataset"},
		{"empty file", "", "dataset: read header: EOF"},
	} {
		path := filepath.Join(dir, "r.csv")
		if err := os.WriteFile(path, []byte(c.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadExecutor(path); err == nil || err.Error() != c.err {
			t.Errorf("%s: loadExecutor error %v, want %q", c.name, err, c.err)
		}
		var out bytes.Buffer
		err := run([]string{"query", "-data", path, "-sql", "SELECT AVG(u) FROM r WITHIN 1 OF (0.5, 0.5)"}, &out)
		if err == nil || err.Error() != c.err {
			t.Errorf("%s: llmq query error %v, want %q (output %q)", c.name, err, c.err, out.String())
		}
	}
}

// writeR1 writes relation R1 with n rows at d = 2 as a CSV under dir, the
// shape of the exact_mixed benchmark's relation at n = 200 000.
func writeR1(tb testing.TB, dir string, n int) string {
	tb.Helper()
	pts, err := synth.Generate(synth.R1Config(n, 2, 1))
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := dataset.FromPoints("R1", pts.Xs, pts.Us)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, "r1.csv")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	w := bufio.NewWriter(f)
	if err := ds.WriteCSV(w); err != nil {
		tb.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestLoadedExecutorHoldsTheRelationOnce checks what stays live after
// loadExecutor on 200 000 × 2 rows once its relation is dropped: the grid's
// clustered points (3.2 MB), its two int32 position maps (1.6 MB) and the
// clustered output (1.6 MB), with room for the cell directory and boxes.
// A second copy of the relation, such as a retained table, breaks the
// bound.
func TestLoadedExecutorHoldsTheRelationOnce(t *testing.T) {
	path := writeR1(t, t.TempDir(), 200000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, _, err := loadExecutor(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live after load: %.2f MB", float64(live)/1e6)
	if live > 6.5e6 {
		t.Errorf("the loaded executor keeps %.2f MB live, want at most 6.5 MB", float64(live)/1e6)
	}
}

// BenchmarkLoadExecutor loads exact_mixed's relation shape (R1, 200 000
// rows, d = 2) from a CSV file: parse, grid build and output clustering.
func BenchmarkLoadExecutor(b *testing.B) {
	path := writeR1(b, b.TempDir(), 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := loadExecutor(path); err != nil {
			b.Fatal(err)
		}
	}
}

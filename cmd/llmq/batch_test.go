package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// setupBatchEnv generates a dataset and trains a model once for the batch
// subcommand tests.
func setupBatchEnv(t testing.TB) (data, model string) {
	t.Helper()
	dir := t.TempDir()
	data = filepath.Join(dir, "r1.csv")
	model = filepath.Join(dir, "model.bin")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "4000", "-dim", "2", "-seed", "3", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"train", "-data", data, "-a", "0.2", "-pairs", "1200", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	return data, model
}

func writeStatements(t testing.TB, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "statements.sql")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBatchAllApproxMean(t *testing.T) {
	data, model := setupBatchEnv(t)
	file := writeStatements(t,
		"# a comment line",
		"SELECT APPROX AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)",
		"",
		"SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.3, 0.7)",
		"SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.8, 0.2)",
	)
	var out bytes.Buffer
	if err := run([]string{"batch", "-data", data, "-model", model, "-file", file}, &out); err != nil {
		t.Fatalf("batch: %v", err)
	}
	got := out.String()
	for _, want := range []string{"[1] approx AVG(u)", "[2]", "[3]", "answered 3 statements"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestBatchMixedStatements(t *testing.T) {
	data, model := setupBatchEnv(t)
	file := writeStatements(t,
		"SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)",
		"SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)",
		"SELECT AVG(u) FROM r1 WITHIN 0.0000001 OF (0.9, 0.9)", // empty subspace
	)
	var out bytes.Buffer
	if err := run([]string{"batch", "-data", data, "-model", model, "-file", file}, &out); err != nil {
		t.Fatalf("batch: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "[1] AVG(u)") {
		t.Errorf("exact result missing:\n%s", got)
	}
	if !strings.Contains(got, "local linear model") {
		t.Errorf("regression result missing:\n%s", got)
	}
	if !strings.Contains(got, "[3] error:") {
		t.Errorf("empty-subspace error missing:\n%s", got)
	}
}

func TestBatchErrors(t *testing.T) {
	data, _ := setupBatchEnv(t)
	var out bytes.Buffer
	cases := [][]string{
		{"batch"},                // missing flags
		{"batch", "-data", data}, // missing file
		{"batch", "-data", data, "-file", "/nope.sql"}, // unreadable file
		{"batch", "-data", data, "-file", writeStatements(t, "# only comments")},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
	// A statement the server refuses is its positional error line; the
	// rest of the sheet still answers.
	out.Reset()
	file := writeStatements(t,
		"SELECT APPROX AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)", // approx without model
		"NOT SQL",
		"SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5)", // wrong dim
		"SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)",
	)
	if err := run([]string{"batch", "-data", data, "-file", file}, &out); err != nil {
		t.Fatalf("batch: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"[1] error: no trained model loaded for APPROX statements\n",
		"[2] error: sql: syntax error at position 1: expected SELECT, got \"NOT\"\n",
		"[3] error: query centre has 1 coordinates, relation has 2 input attributes\n",
		"[4] AVG(u) = ",
		"answered 4 statements",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestBatchTakesNoCapacityFlags: a batch only reads the model, so it has
// no capacity flags; the flag package refuses them.
func TestBatchTakesNoCapacityFlags(t *testing.T) {
	var out bytes.Buffer
	for _, f := range []string{"-max-prototypes", "-evict", "-merge"} {
		err := run([]string{"batch", "-data", "r1.csv", "-file", "s.sql", f, "1"}, &out)
		if want := "flag provided but not defined: " + f; err == nil || err.Error() != want {
			t.Errorf("batch %s: error %v, want %q", f, err, want)
		}
	}
}

// BenchmarkBatchLocal times `llmq batch -data` from the command line to the
// last printed line (load, boot, answer, print to io.Discard) over a sheet
// of 4096 APPROX or EXACT statements, AVG, REGRESSION and VALUE in turn at
// scattered centres; ns/stmt is the time per statement.
func BenchmarkBatchLocal(b *testing.B) {
	data, model := setupBatchEnv(b)
	for _, mode := range []string{"APPROX", "EXACT"} {
		b.Run(mode, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, 2))
			sqls := make([]string, 4096)
			for i := range sqls {
				x, y, theta := rng.Float64(), rng.Float64(), 0.05+0.1*rng.Float64()
				switch i % 3 {
				case 0:
					sqls[i] = fmt.Sprintf("SELECT %s AVG(u) FROM r1 WITHIN %.4f OF (%.4f, %.4f)", mode, theta, x, y)
				case 1:
					sqls[i] = fmt.Sprintf("SELECT %s REGRESSION(u) FROM r1 WITHIN %.4f OF (%.4f, %.4f)", mode, theta, x, y)
				default:
					sqls[i] = fmt.Sprintf("SELECT %s VALUE(u) FROM r1 AT (%.4f, %.4f) WITHIN %.4f OF (%.4f, %.4f)", mode, x, y, theta, x, y)
				}
			}
			file := writeStatements(b, sqls...)
			args := []string{"batch", "-data", data, "-model", model, "-file", file}
			b.ReportAllocs()
			for b.Loop() {
				if err := run(args, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sqls)), "ns/stmt")
		})
	}
}

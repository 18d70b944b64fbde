package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llmq/internal/core"
)

func TestUsageAndUnknownSubcommand(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("empty args should error")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"help"}, &out); err != nil {
		t.Errorf("help: %v", err)
	}
	if !strings.Contains(out.String(), "subcommands") {
		t.Error("usage text missing")
	}
}

func TestGenerateTrainQueryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	model := filepath.Join(dir, "model.bin")
	var out bytes.Buffer

	// Generate a small R1 dataset.
	if err := run([]string{"generate", "-dataset", "R1", "-n", "4000", "-dim", "2", "-seed", "3", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := os.Stat(data); err != nil {
		t.Fatalf("dataset not written: %v", err)
	}

	// Train a model on a modest workload.
	out.Reset()
	if err := run([]string{"train", "-data", data, "-a", "0.2", "-pairs", "1500", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	if !strings.Contains(out.String(), "prototypes") {
		t.Errorf("train output: %q", out.String())
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}

	// Exact mean query.
	out.Reset()
	if err := run([]string{"query", "-data", data, "-sql", "SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)"}, &out); err != nil {
		t.Fatalf("exact query: %v", err)
	}
	if !strings.Contains(out.String(), "exact over") {
		t.Errorf("exact query output: %q", out.String())
	}

	// Approximate mean query through the model.
	out.Reset()
	if err := run([]string{"query", "-data", data, "-model", model, "-sql", "SELECT APPROX AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)"}, &out); err != nil {
		t.Fatalf("approx query: %v", err)
	}
	if !strings.Contains(out.String(), "no data access") {
		t.Errorf("approx query output: %q", out.String())
	}

	// Exact and approximate regression queries.
	out.Reset()
	if err := run([]string{"query", "-data", data, "-sql", "SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.2 OF (0.5, 0.5)"}, &out); err != nil {
		t.Fatalf("exact regression: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION(u): 1 local linear model(s) [exact over ") {
		t.Errorf("regression output: %q", out.String())
	}
	out.Reset()
	if err := run([]string{"query", "-data", data, "-model", model, "-sql", "SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)"}, &out); err != nil {
		t.Fatalf("approx regression: %v", err)
	}
	if !strings.Contains(out.String(), "local linear model") {
		t.Errorf("approx regression output: %q", out.String())
	}

	// Data-value prediction, both paths.
	out.Reset()
	if err := run([]string{"query", "-data", data, "-model", model, "-sql", "SELECT APPROX VALUE(u) FROM r1 AT (0.5, 0.5) WITHIN 0.2 OF (0.5, 0.5)"}, &out); err != nil {
		t.Fatalf("approx value: %v", err)
	}
	out.Reset()
	if err := run([]string{"query", "-data", data, "-sql", "SELECT VALUE(u) FROM r1 AT (0.5, 0.5) WITHIN 0.2 OF (0.5, 0.5)"}, &out); err != nil {
		t.Fatalf("exact value: %v", err)
	}
}

// TestApproxRegressionLines pins the bytes of every S[i] line an APPROX
// REGRESSION prints for the checked-in model file: the centre each local model is
// around renders as "[x1, x2]" with 6 significant digits.
func TestApproxRegressionLines(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	var out bytes.Buffer
	if err := run([]string{"generate", "-n", "500", "-dim", "2", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join("..", "..", "internal", "core", "testdata", "model.bin")
	out.Reset()
	if err := run([]string{"query", "-data", data, "-model", model, "-sql", "SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.3 OF (0.3, 0.6)"}, &out); err != nil {
		t.Fatal(err)
	}
	want := `  S[0] (weight 0.085, around [0.17032, 0.285387], θ=0.0991): u ≈ 0.6696 +0·x1 +0·x2
  S[1] (weight 0.020, around [0.474671, 0.253433], θ=0.102): u ≈ 0.8171 +0.4594·x1 +0.4028·x2
  S[2] (weight 0.283, around [0.25439, 0.752027], θ=0.0969): u ≈ -0.2882 +2.051·x1 +1.457·x2
  S[3] (weight 0.113, around [0.629788, 0.606485], θ=0.11): u ≈ 1.085 -0.5929·x1 +1.137·x2
  S[4] (weight 0.222, around [0.465295, 0.786695], θ=0.105): u ≈ 0.5916 +0.2505·x1 +1.259·x2
  S[5] (weight 0.276, around [0.264733, 0.446801], θ=0.0939): u ≈ 0.118 +1.938·x1 +0.8092·x2
`
	head, lines, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(head, "approx REGRESSION(u): 6 local linear model(s) [model, ") {
		t.Errorf("header %q", head)
	}
	if lines != want {
		t.Errorf("local model lines\n%s\nwant\n%s", lines, want)
	}
}

func TestQueryErrors(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	var out bytes.Buffer
	if err := run([]string{"generate", "-n", "500", "-dim", "2", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"query", "-sql", "SELECT AVG(u) FROM t WITHIN 1 OF (0, 0)"},                      // missing data
		{"query", "-data", data},                                                          // missing sql
		{"query", "-data", data, "-sql", "NOT SQL"},                                       // parse error
		{"query", "-data", data, "-sql", "SELECT APPROX AVG(u) FROM t WITHIN 1 OF (0,0)"}, // approx without model
		{"query", "-data", data, "-sql", "SELECT AVG(u) FROM t WITHIN 1 OF (0)"},          // wrong centre dim
		{"train"},                       // missing data
		{"train", "-data", "/nope.csv"}, // unreadable data
		{"generate", "-dataset", "XX"},  // unknown dataset
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestQueryColumnNames: `llmq query` answers a statement naming the
// relation's columns even when its header puts spaces after the commas, and
// one on a relation whose output name no statement can spell, as it did
// before statements named their columns.
func TestQueryColumnNames(t *testing.T) {
	dir := t.TempDir()
	for header, sql := range map[string]string{
		"x1, x2, u":    "SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 1 OF (0.2, 0.2)",
		"x1,x2,p-wave": "SELECT AVG(u) FROM r1 WITHIN 1 OF (0.2, 0.2)",
	} {
		data := filepath.Join(dir, "r.csv")
		if err := os.WriteFile(data, []byte(header+"\n0.1,0.1,1\n0.2,0.3,2\n0.3,0.2,3\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"query", "-data", data, "-sql", sql}, &out); err != nil {
			t.Errorf("header %q: %s: %v", header, sql, err)
		}
	}
}

func TestGenerateToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R2", "-n", "50", "-dim", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 51 { // header + 50 rows
		t.Errorf("stdout CSV has %d lines", len(lines))
	}
}

func TestVigilance(t *testing.T) {
	// √d is math.Sqrt's, correctly rounded: exact at d = 4, and at d = 8 the
	// double nearest 2√2.
	if got := vigilance(1, 1, 0, 4); math.Float64bits(got) != math.Float64bits(2) {
		t.Errorf("vigilance at d=4 = %v, want 2", got)
	}
	if got := vigilance(1, 1, 0, 8); math.Float64bits(got) != 0x4006a09e667f3bcd {
		t.Errorf("vigilance at d=8 = %v (%#x), want 2.8284271247461903", got, math.Float64bits(got))
	}

	// train at its default -a and -theta trains with the ρ a fresh
	// serve -data-dir derives for the same relation.
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	model := filepath.Join(dir, "model.bin")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "3000", "-dim", "3", "-seed", "5", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := run([]string{"train", "-data", data, "-pairs", "100", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, rel, err := loadExecutor(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Config().Vigilance, defaultModelConfig(rel).Vigilance; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("train derived ρ = %v, serve derives %v", got, want)
	}
}

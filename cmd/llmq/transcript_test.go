package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// transcriptSheet is the statement file of batch_transcript.golden: EXACT and
// APPROX statements of every kind, then one statement for each way a
// statement is refused or fails.
const transcriptSheet = `# EXACT and APPROX of all three kinds
SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)
SELECT APPROX AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)
SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.3 OF (0.3, 0.6)
SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.3 OF (0.3, 0.6)
SELECT VALUE(u) FROM r1 AT (0.4, 0.5) WITHIN 0.2 OF (0.5, 0.5)
SELECT APPROX VALUE(u) FROM r1 AT (0.4, 0.5) WITHIN 0.2 OF (0.5, 0.5)
# an empty subspace, a parse error, a wrong-dimension centre, refused names
SELECT AVG(u) FROM r1 WITHIN 0.0000001 OF (0.9, 0.9)
NOT SQL
SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5)
SELECT AVG(x1) FROM r1 WITHIN 0.2 OF (0.5, 0.5)
SELECT REGRESSION(u ON x2, x1) FROM r1 WITHIN 0.3 OF (0.3, 0.6)
`

// elapsedTimes matches the durations a transcript prints.
var elapsedTimes = regexp.MustCompile(`\b[0-9][0-9.]*(ns|µs|ms|s)\b`)

// TestBatchTranscriptGolden runs transcriptSheet through `llmq batch -data`
// and through `llmq batch -url` against a server over the same files, once
// with the checked-in model file and once without a model (every APPROX
// statement refused). Both modes must print testdata/batch_transcript.golden
// byte for byte once elapsed times are masked: one statement path, one
// printer.
func TestBatchTranscriptGolden(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	var out bytes.Buffer
	if err := run([]string{"generate", "-n", "500", "-dim", "2", "-o", data}, &out); err != nil {
		t.Fatal(err)
	}
	sheet := filepath.Join(dir, "sheet.sql")
	if err := os.WriteFile(sheet, []byte(transcriptSheet), 0o644); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join("..", "..", "internal", "core", "testdata", "model.bin")
	want, err := os.ReadFile(filepath.Join("testdata", "batch_transcript.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var local, remote bytes.Buffer
	for _, c := range []struct {
		head  string
		model []string
	}{
		{"$ llmq batch -data r1.csv -model model.bin -file sheet.sql\n", []string{"-model", model}},
		{"$ llmq batch -data r1.csv -file sheet.sql\n", nil},
	} {
		local.WriteString(c.head)
		if err := run(append([]string{"batch", "-data", data, "-file", sheet}, c.model...), &local); err != nil {
			t.Fatalf("local batch: %v", err)
		}
		s, _, err := openServe(t, append([]string{"-data", data}, c.model...)...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		remote.WriteString(c.head)
		err = run([]string{"batch", "-url", ts.URL, "-file", sheet}, &remote)
		ts.Close()
		if err != nil {
			t.Fatalf("remote batch: %v", err)
		}
	}
	for _, c := range []struct {
		mode string
		got  []byte
	}{{"-data", local.Bytes()}, {"-url", remote.Bytes()}} {
		if got := elapsedTimes.ReplaceAll(c.got, []byte("<t>")); !bytes.Equal(got, want) {
			t.Errorf("llmq batch %s printed\n%s\nwant\n%s", c.mode, got, want)
		}
	}
}

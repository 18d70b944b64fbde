package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRemoteBatchAndTrain drives the -url client modes end to end against a
// real serve handler: batch ships a statement sheet to /query/batch and
// prints positional answers, train computes pairs locally and ships them to
// /train — and both retry through a shedding front that 429s the first
// attempt, exercising the resilience.Do path.
func TestRemoteBatchAndTrain(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "r1.csv")
	var out bytes.Buffer
	if err := run([]string{"generate", "-dataset", "R1", "-n", "3000", "-dim", "2", "-seed", "9", "-o", data}, &out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	model := filepath.Join(dir, "model.bin")
	if err := run([]string{"train", "-data", data, "-a", "0.2", "-pairs", "300", "-o", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	s, _, err := openServe(t, "-data", data, "-model", model)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	// A flaky front: every other request is shed with 429 + Retry-After
	// before reaching the server, so the client must retry to succeed.
	var n atomic.Int64
	front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error": "overloaded"}`, http.StatusTooManyRequests)
			return
		}
		s.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(front)
	defer ts.Close()

	stmts := filepath.Join(dir, "stmts.sql")
	sheet := "SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.5, 0.5)\n# comment\nSELECT VALUE(u) FROM r1 AT (0.5, 0.5) WITHIN 0.2 OF (0.5, 0.5)\n"
	if err := os.WriteFile(stmts, []byte(sheet), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"batch", "-url", ts.URL, "-file", stmts}, &out); err != nil {
		t.Fatalf("remote batch: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "[1] AVG(u) =") || !strings.Contains(got, "[2] VALUE(u) =") || !strings.Contains(got, "answered 2 statements") {
		t.Errorf("remote batch output:\n%s", got)
	}

	out.Reset()
	if err := run([]string{"train", "-data", data, "-url", ts.URL, "-pairs", "40"}, &out); err != nil {
		t.Fatalf("remote train: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shipped 40 training pairs") {
		t.Errorf("remote train output:\n%s", out.String())
	}

	// Flag validation: remote mode owns no local model state.
	if err := run([]string{"batch", "-url", ts.URL, "-file", stmts, "-data", data}, &out); err == nil {
		t.Error("batch -url with -data should error")
	}
	if err := run([]string{"train", "-data", data, "-url", ts.URL, "-data-dir", dir}, &out); err == nil {
		t.Error("train -url with -data-dir should error")
	}
}

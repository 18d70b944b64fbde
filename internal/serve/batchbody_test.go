package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// sheetBody is the /query/batch body of n copies of stmt.
func sheetBody(n int, stmt string) []byte {
	b, _ := json.Marshal(BatchRequest{SQL: slices.Repeat([]string{stmt}, n)})
	return b
}

// FuzzBatchBody POSTs arbitrary bytes to /query/batch on a server with a
// relation and a model. The handler never panics; a refusal is a JSON
// errorBody; an accepted sheet is an NDJSON stream that ReadBatchStream
// reads as one frame per statement, in order, and a trailer counting
// every statement the body's first JSON value lists.
func FuzzBatchBody(f *testing.F) {
	const approx = "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"
	mixed, _ := json.Marshal(BatchRequest{SQL: []string{
		approx,
		"SELECT AVG(u) FROM r1 WITHIN 0.15 OF (0.3, 0.7)",
		"SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.15 OF (0.6, 0.4)",
		"SELECT REGRESSION(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5) NORM L1",
		"SELECT APPROX VALUE(u) FROM r1 AT (0.5, 0.45) WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT AVG(u) FROM r1 WITHIN 0.000001 OF (0.9, 0.9)",
		"NOT SQL AT ALL",
	}})
	for _, seed := range [][]byte{
		mixed,
		[]byte(`{"sql":[]}`),
		sheetBody(maxBatchStatements, approx),
		sheetBody(maxBatchStatements+1, approx),
		[]byte(`{"sql":"` + approx + `"}`),
		[]byte(`{"sql":{"0":"` + approx + `"}}`),
		[]byte(`{"sql":["` + approx + `"]} trailing`),
		[]byte(`{"sql":["` + approx + `"]}{"sql":"x"}`),
		[]byte(`{"sql":["` + strings.Repeat("a", maxBodyBytes) + `"]}`),
		[]byte(`{"sql":[null, 1]}`),
		[]byte(`null`),
		[]byte(``),
	} {
		f.Add(seed)
	}
	s := newServer(f, true)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var eb errorBody
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d with body %q: not an errorBody (%v)", rec.Code, rec.Body.String(), err)
			}
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != NDJSONContentType {
			t.Fatalf("status 200 with Content-Type %q", ct)
		}
		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("status 200 for a body encoding/json refuses: %v", err)
		}
		trailer, err := ReadBatchStream(rec.Body, nil)
		if err != nil {
			t.Fatalf("stream of %d statements: %v", len(req.SQL), err)
		}
		if trailer.Results != len(req.SQL) {
			t.Fatalf("trailer counts %d results for %d statements", trailer.Results, len(req.SQL))
		}
	})
}

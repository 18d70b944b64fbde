package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

// elapsedField is the one field of a /query answer that is a clock reading.
var elapsedField = regexp.MustCompile(`"elapsed":"[^"]*"`)

// FuzzQueryBody holds the one-pass /query path to encoding/json: for any
// bytes, scanQuery either declines or returns the statement encoding/json
// decodes from the first JSON value of the body, and the handler answers
// with the same status, Content-Type and body bytes (elapsed masked)
// whether the scanner ran or was made to decline.
func FuzzQueryBody(f *testing.F) {
	const stmt = "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"
	for _, seed := range []string{
		`{"sql":"` + stmt + `"}`,
		" {\t\"sql\"\n:\r\"" + stmt + "\" } \n",
		`{"sql":"select approx value(u) from r1 at (0.5, 0.45) within 0.15 of (0.5, 0.5)"}`,
		`{"sql":"SELECT APPROX REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.15 OF (0.5, 0.5) NORM L1"}`,
		`{"sql":"SELECT EXACT AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5);"}`,
		`{"sql":"SELECT REGRESSION(u) FROM r1 WITHIN 0.15 OF (0.3, 0.7)"}`,
		`{"sql":"SELECT VALUE(u) FROM r1 AT (0.3, 0.7) WITHIN 0.15 OF (0.3, 0.7) NORM LINF"}`,
		`{"sql":"SELECT AVG(u) FROM r1 WITHIN 0.0001 OF (55, 55)"}`,
		`{"sql":"SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5)"}`,
		`{"sql":"garbage"}`,
		`{"sql":"SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5,\u00200.5)"}`,
		`{"sql":"SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5,\/0.5)"}`,
		`{"sql":"SELECT APPROX AVG(\"u\") FROM r1 WITHIN 0.15 OF (0.5, 0.5)"}`,
		"{\"sql\":\"SELECT APPROX AVG(\xc3\xbc) FROM r1 WITHIN 0.15 OF (0.5, 0.5)\"}",
		"{\"sql\":\"SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)\xff\"}",
		"{\"sql\":\"SELECT APPROX AVG(u)\tFROM r1 WITHIN 0.15 OF (0.5, 0.5)\"}",
		"{\"sql\":\"SELECT APPROX AVG(u)\x7fFROM r1 WITHIN 0.15 OF (0.5, 0.5)\"}",
		`{"SQL":"` + stmt + `"}`,
		`{"s\u0071l":"` + stmt + `"}`,
		`{"query":"` + stmt + `"}`,
		`{"sql":"` + stmt + `","note":1}`,
		`{"sql":"garbage","sql":"` + stmt + `"}`,
		`{"sql":null}`,
		`{"sql":1}`,
		`{"sql":""}`,
		`{}`,
		`null`,
		`[]`,
		``,
		`{"sql":"` + stmt,
		`{"sql":"` + stmt + `"} x`,
		`{"sql":"` + stmt + `"}{"sql":"garbage"}`,
	} {
		f.Add([]byte(seed))
	}
	scanned := newServer(f, true)
	declined, err := New(scanned.exec, scanned.backend.pair().Model())
	if err != nil {
		f.Fatal(err)
	}
	declined.declineScan = true
	post := func(s *Server, body []byte) (int, string, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		return rec.Code, rec.Header().Get("Content-Type"), elapsedField.ReplaceAllString(rec.Body.String(), `"elapsed":""`)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if sql, ok := scanQuery(body); ok {
			var req QueryRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || req.SQL != sql {
				t.Fatalf("scanQuery read %q; encoding/json reads %q (%v)", sql, req.SQL, err)
			}
		}
		gotStatus, gotType, gotBody := post(scanned, body)
		wantStatus, wantType, wantBody := post(declined, body)
		if gotStatus != wantStatus || gotType != wantType || gotBody != wantBody {
			t.Fatalf("scanner path answered %d %s %q, encoding/json path %d %s %q",
				gotStatus, gotType, gotBody, wantStatus, wantType, wantBody)
		}
	})
}

// TestQueryScanCanonicalAndDeclines pins which side of the line the
// canonical shapes fall on: a scanner that declined everything would pass
// FuzzQueryBody's equalities vacuously.
func TestQueryScanCanonicalAndDeclines(t *testing.T) {
	for _, tc := range []struct {
		body, sql string
		ok        bool
	}{
		{`{"sql":"SELECT 1"}`, "SELECT 1", true},
		{" {\t\"sql\"\n:\r\"a ~!\" } \n", "a ~!", true},
		{`{"sql":""}`, "", true},
		{`{"sql":"a\"b"}`, "", false},
		{`{"sql":"a\u0062"}`, "", false},
		{"{\"sql\":\"\xc3\xbc\"}", "", false},
		{"{\"sql\":\"a\tb\"}", "", false},
		{"{\"sql\":\"a\x7f\"}", "", false},
		{`{"SQL":"a"}`, "", false},
		{`{"sql":"a","sql":"b"}`, "", false},
		{`{"sql":null}`, "", false},
		{`{"sql":"a"} x`, "", false},
		{`{"sql":"a"`, "", false},
	} {
		sql, ok := scanQuery([]byte(tc.body))
		if ok != tc.ok || sql != tc.sql {
			t.Errorf("scanQuery(%q) = %q, %v; want %q, %v", tc.body, sql, ok, tc.sql, tc.ok)
		}
	}
}

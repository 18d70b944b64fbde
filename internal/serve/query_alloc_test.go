//go:build !race

// Allocation counts are meaningless under the race detector, whose
// instrumentation allocates; the -race run drives the same handler through
// every other /query test.

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"llmq/internal/sqlfront"
)

// rewindBody is a request body that can be read again, so one request
// serves every run of testing.AllocsPerRun.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// reusedWriter is a ResponseWriter whose header map and body buffer are
// reused across requests, so the allocations counted are the handler's.
type reusedWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *reusedWriter) Header() http.Header { return w.header }
func (w *reusedWriter) WriteHeader(s int)   { w.status = s }
func (w *reusedWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *reusedWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body.Reset()
}

// TestQueryHandlerAllocs bounds the allocations of a warm APPROX /query on a
// local model, measured the way the benchmark's traced run measures
// serve.query_handler_allocs: one request and one writer, both reused. The
// body is read into a pooled buffer and scanned in one pass, the statement
// is lexed into the parser's stack, no deadline timer is created (nothing
// on this path can observe one) and the answer is appended into the pooled
// buffer and written once. 31 allocations per request through
// encoding/json, a deadline armed at entry and a lexer growing its token
// slice; 10 with the statement's dimension checked against a copy of the
// attribute names, 9 now. The bound sits halfway.
func TestQueryHandlerAllocs(t *testing.T) {
	s := newServer(t, true)
	body := []byte(`{"sql":"SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"}`)
	var rb rewindBody
	req := httptest.NewRequest(http.MethodPost, "/query", &rb)
	w := &reusedWriter{header: make(http.Header)}
	post := func() {
		rb.Reset(body)
		w.reset()
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.String())
		}
	}
	post() // warm: the pooled buffer reaches this body's size
	const bound = 20
	if got := testing.AllocsPerRun(200, post); got > bound {
		t.Fatalf("a warm APPROX /query allocates %.1f objects, bound %d", got, bound)
	} else {
		t.Logf("%.1f allocations per warm APPROX /query", got)
	}
}

// TestParseStatementAllocs pins that checking a statement against the
// served relation allocates nothing beyond parsing it: every /query and
// every sheet statement passes through parseStatement, whose dimension
// check reads Executor.Dim rather than a copy of the attribute names.
func TestParseStatementAllocs(t *testing.T) {
	s := newServer(t, true)
	const sql = "SELECT AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)"
	parse := testing.AllocsPerRun(200, func() {
		if _, err := sqlfront.Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	check := testing.AllocsPerRun(200, func() {
		if _, _, err := s.parseStatement(sql, nil); err != nil {
			t.Fatal(err)
		}
	})
	if check != parse {
		t.Fatalf("parseStatement allocates %.1f objects, sqlfront.Parse alone %.1f", check, parse)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"llmq/internal/core"
	"llmq/internal/dataset"
	"llmq/internal/engine"
	"llmq/internal/exec"
	"llmq/internal/synth"
	"llmq/internal/workload"
)

// newExecutorOver builds the executor of a relation r1 holding the given
// points.
func newExecutorOver(t testing.TB, xs [][]float64, us []float64) *exec.Executor {
	t.Helper()
	ds, err := dataset.FromPoints("r1", xs, us)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	tab, err := cat.LoadDataset("r1", ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exec.NewExecutorWithGrid(tab, ds.InputNames, ds.OutputName, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// newServer builds a server over a small synthetic relation, optionally with
// a trained model.
func newServer(t testing.TB, withModel bool, opts ...Option) *Server {
	t.Helper()
	pts, err := synth.Generate(synth.R1Config(5000, 2, 31))
	if err != nil {
		t.Fatal(err)
	}
	e := newExecutorOver(t, pts.Xs, pts.Us)
	var m *core.Model
	if withModel {
		gen, err := workload.NewGenerator(workload.GenConfig{
			Dim: 2, CenterLo: 0, CenterHi: 1, ThetaMean: 0.12, ThetaStdDev: 0.02, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := workload.NewHarness(e, gen)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(2)
		cfg.ResolutionA = 0.1
		m, _, _, err = h.TrainModel(cfg, 1500)
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(e, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postQuery(t *testing.T, s *Server, sql string) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestNewRequiresExecutor(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil executor accepted")
	}
}

func TestHealthAndModelEndpoints(t *testing.T) {
	s := newServer(t, true)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/model", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("model status = %d", rec.Code)
	}
	var info ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.Prototypes == 0 || info.Dim != 2 {
		t.Errorf("model info = %+v", info)
	}
	// Wrong method.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/model", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /model status = %d", rec.Code)
	}
}

func TestModelEndpointWithoutModel(t *testing.T) {
	s := newServer(t, false)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/model", nil))
	var info ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Loaded {
		t.Error("model reported loaded without one")
	}
}

func TestExactAndApproxMeanQueries(t *testing.T) {
	s := newServer(t, true)
	exact := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)")
	if exact.Code != http.StatusOK {
		t.Fatalf("exact status = %d body %s", exact.Code, exact.Body.String())
	}
	var exactResp QueryResponse
	if err := json.Unmarshal(exact.Body.Bytes(), &exactResp); err != nil {
		t.Fatal(err)
	}
	if exactResp.Mean == nil || exactResp.Tuples == 0 || exactResp.Approx {
		t.Errorf("exact response = %+v", exactResp)
	}
	approx := postQuery(t, s, "SELECT APPROX AVG(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)")
	if approx.Code != http.StatusOK {
		t.Fatalf("approx status = %d body %s", approx.Code, approx.Body.String())
	}
	var approxResp QueryResponse
	if err := json.Unmarshal(approx.Body.Bytes(), &approxResp); err != nil {
		t.Fatal(err)
	}
	if approxResp.Mean == nil || !approxResp.Approx || approxResp.Tuples != 0 {
		t.Errorf("approx response = %+v", approxResp)
	}
	// The two answers should agree loosely (same subspace).
	if diff := *exactResp.Mean - *approxResp.Mean; diff > 1 || diff < -1 {
		t.Errorf("exact %v vs approx %v diverge wildly", *exactResp.Mean, *approxResp.Mean)
	}
}

func TestRegressionAndValueQueries(t *testing.T) {
	s := newServer(t, true)
	for _, sql := range []string{
		"SELECT REGRESSION(u ON x1, x2) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
	} {
		rec := postQuery(t, s, sql)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", sql, rec.Code, rec.Body.String())
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Models) == 0 || resp.Kind != "regression" {
			t.Errorf("%s: response %+v", sql, resp)
		}
	}
	for _, sql := range []string{
		"SELECT VALUE(u) FROM r1 AT (0.5, 0.5) WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT APPROX VALUE(u) FROM r1 AT (0.5, 0.5) WITHIN 0.15 OF (0.5, 0.5)",
	} {
		rec := postQuery(t, s, sql)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", sql, rec.Code, rec.Body.String())
		}
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Value == nil || resp.Kind != "value" {
			t.Errorf("%s: response %+v", sql, resp)
		}
	}
}

func TestQueryErrorPaths(t *testing.T) {
	s := newServer(t, false)
	// Method not allowed.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", rec.Code)
	}
	// Bad JSON.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", rec.Code)
	}
	// Missing SQL.
	if rec := postQuery(t, s, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("empty sql status = %d", rec.Code)
	}
	// Parse error.
	if rec := postQuery(t, s, "DROP TABLE r1"); rec.Code != http.StatusBadRequest {
		t.Errorf("parse error status = %d", rec.Code)
	}
	// Wrong dimensionality.
	if rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.1 OF (0.5)"); rec.Code != http.StatusBadRequest {
		t.Errorf("wrong dim status = %d", rec.Code)
	}
	// APPROX without a model.
	if rec := postQuery(t, s, "SELECT APPROX AVG(u) FROM r1 WITHIN 0.1 OF (0.5, 0.5)"); rec.Code != http.StatusConflict {
		t.Errorf("approx without model status = %d", rec.Code)
	}
	// Empty subspace maps to 404.
	if rec := postQuery(t, s, "SELECT AVG(u) FROM r1 WITHIN 0.0001 OF (55, 55)"); rec.Code != http.StatusNotFound {
		t.Errorf("empty subspace status = %d", rec.Code)
	}
}

// TestStatementColumnNames: a statement must name the relation's output
// attribute, and a REGRESSION that lists its inputs must list the relation's
// input attributes in column order. /query refuses any other names with 400
// and a sheet with a positional error frame, EXACT and APPROX alike, while
// an omitted ON list and any FROM name still answer.
func TestStatementColumnNames(t *testing.T) {
	s := newServer(t, true)
	refused := []string{
		"SELECT REGRESSION(x1 ON foo, bar, baz) FROM nowhere WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT REGRESSION(u ON x2) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT REGRESSION(u ON x2, x1) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT REGRESSION(u ON x1, x2, x1) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT APPROX REGRESSION(u ON x2, x1) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT AVG(x1) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT APPROX AVG(U) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT VALUE(x2) FROM r1 AT (0.5, 0.5) WITHIN 0.15 OF (0.5, 0.5)",
	}
	for _, sql := range refused {
		rec := postQuery(t, s, sql)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", sql, rec.Code, rec.Body.String())
		}
	}
	answered := []string{
		"SELECT REGRESSION(u ON x1, x2) FROM nowhere WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT REGRESSION(u ON *) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT APPROX REGRESSION(u) FROM r1 WITHIN 0.15 OF (0.5, 0.5)",
		"SELECT AVG(u) FROM elsewhere WITHIN 0.15 OF (0.5, 0.5)",
	}
	for _, sql := range answered {
		if rec := postQuery(t, s, sql); rec.Code != http.StatusOK {
			t.Errorf("%s: status %d body %s, want 200", sql, rec.Code, rec.Body.String())
		}
	}
	frames, _ := decodeStream(t, postBatch(t, s, BatchRequest{SQL: append(append([]string(nil), refused...), answered...)}))
	for i, f := range frames {
		if want := i >= len(refused); (f.Error == "") != want {
			t.Errorf("sheet statement %d: error %q, want answered %v", i, f.Error, want)
		}
	}
	if got := frames[0].Error; got != `unknown output attribute "x1": the relation's output attribute is "u"` {
		t.Errorf("output refusal %q", got)
	}
	if got := frames[2].Error; got != "regression inputs (x2, x1) are not the relation's input attributes (x1, x2) in order" {
		t.Errorf("inputs refusal %q", got)
	}
}

// TestStatementColumnNamesTheDialectCannotSpell: a relation's attribute name
// that no statement can spell (a keyword, a name with a symbol or a space)
// is not checked, so such a relation still answers every statement it
// answered before names were checked; the names it can spell still are.
func TestStatementColumnNamesTheDialectCannotSpell(t *testing.T) {
	x, u := []float64{0.1, 0.1, 0.2, 0.3, 0.3, 0.2}, []float64{1, 2, 3}
	for _, c := range []struct {
		inputs            []string
		output            string
		answered, refused []string
	}{
		{[]string{"x1", "x 2"}, "value", []string{
			"SELECT AVG(u) FROM r WITHIN 1 OF (0.2, 0.2)",
			"SELECT REGRESSION(u ON x2) FROM r WITHIN 1 OF (0.2, 0.2)",
		}, nil},
		{[]string{"x1", "x2"}, "p-wave", []string{
			"SELECT AVG(u) FROM r WITHIN 1 OF (0.2, 0.2)",
			"SELECT REGRESSION(pwave ON x1, x2) FROM r WITHIN 1 OF (0.2, 0.2)",
		}, []string{
			"SELECT REGRESSION(u ON x2, x1) FROM r WITHIN 1 OF (0.2, 0.2)",
		}},
		{[]string{"at", "x2"}, "u", []string{
			"SELECT REGRESSION(u ON x2) FROM r WITHIN 1 OF (0.2, 0.2)",
		}, []string{
			"SELECT AVG(y) FROM r WITHIN 1 OF (0.2, 0.2)",
		}},
	} {
		e, err := exec.NewExecutor(x, u, c.inputs, c.output, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range c.answered {
			if rec := postQuery(t, s, sql); rec.Code != http.StatusOK {
				t.Errorf("%q / %q: %s: status %d body %s, want 200", c.inputs, c.output, sql, rec.Code, rec.Body.String())
			}
		}
		for _, sql := range c.refused {
			if rec := postQuery(t, s, sql); rec.Code != http.StatusBadRequest {
				t.Errorf("%q / %q: %s: status %d body %s, want 400", c.inputs, c.output, sql, rec.Code, rec.Body.String())
			}
		}
	}
}

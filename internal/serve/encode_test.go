package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// TestAnswerEncoderMatchesEncodingJSON holds appendAnswer to encoding/json
// on random answers, as a /query body and as a /query/batch result frame:
// the same bytes, or an error exactly when encoding/json refuses the value.
// The floats mix the format's edges (−0, both sides of 1e-6 and 1e21,
// subnormals, ±MaxFloat64, a one-digit negative exponent), random bit
// patterns (NaN and ±Inf among them) and ordinary values; every slice is
// nil, empty or filled, every omitempty field is set or not, and the strings
// hold what json.Encoder escapes.
func TestAnswerEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789, 1e20,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
		1e-7, 1e-9, 3e-10, 1e-100, 1e100, 1e300,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-310, -4.9e-324,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return rng.Float64()
	}
	ptr := func() *float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		x := float()
		return &x
	}
	floats := func() []float64 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		xs := make([]float64, 1+rng.Intn(4))
		for i := range xs {
			xs[i] = float()
		}
		return xs
	}
	pieces := []string{"mean", "regression", "value", "1.25µs", "3ms", "<", ">", "&", `"`, `\`,
		"\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f", "\xff", "\xc3", "é", "\u2028", "\u2029", "😀"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for i := 0; i < 20000; i++ {
		resp := &QueryResponse{
			Kind: str(), Approx: rng.Intn(2) == 0,
			Mean: ptr(), Value: ptr(), FVU: ptr(), R2: ptr(),
			Tuples:   []int{0, 0, 1, 400, -3, math.MaxInt}[rng.Intn(6)],
			Degraded: rng.Intn(2) == 0, Elapsed: str(),
		}
		switch rng.Intn(3) {
		case 0:
			resp.Models = []LocalModelJSON{}
		case 1:
			for k := rng.Intn(3) + 1; k > 0; k-- {
				resp.Models = append(resp.Models, LocalModelJSON{
					Intercept: float(), Slope: floats(), Center: floats(), Theta: float(), Weight: float(),
				})
			}
		}
		for _, index := range []int{-1, i} {
			var want bytes.Buffer
			var v any = resp
			if index >= 0 {
				v = resultFrame(index, resp)
			}
			werr := json.NewEncoder(&want).Encode(v)
			got, gerr := appendAnswer(nil, index, resp)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("answer %+v, index %d: appendAnswer error %v, encoding/json error %v", resp, index, gerr, werr)
			}
			if werr == nil && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("index %d:\nappendAnswer  %q\nencoding/json %q", index, got, want.Bytes())
			}
		}
	}
}

// TestNonFiniteAnswers serves a relation whose response is the constant 1
// where x1 ≥ 0.5 and 1e308 elsewhere. An EXACT regression inside the
// constant half has FVU = +Inf whenever rounding leaves a residual (the
// OLSModel.FVU contract): the answer is a 200 without fvu, on /query and in
// a sheet. A mean over the 1e308 half overflows to +Inf, which JSON cannot
// carry: /query answers 500 naming it, and a sheet gets an error frame for
// that statement and streams on to its trailer.
func TestNonFiniteAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, us := make([][]float64, 800), make([]float64, 800)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		us[i] = 1
		if xs[i][0] < 0.5 {
			us[i] = 1e308
		}
	}
	s, err := New(newExecutorOver(t, xs, us), nil)
	if err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, 200)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT REGRESSION(u) FROM r1 WITHIN 0.2 OF (%.4f, %.4f)", 0.7+0.3*rng.Float64(), rng.Float64())
	}
	noFVU := 0
	for _, sql := range sqls {
		rec := postQuery(t, s, sql)
		var resp QueryResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("%s: status %d, body %q", sql, rec.Code, rec.Body.String())
		}
		if resp.R2 == nil || len(resp.Models) != 1 {
			t.Fatalf("%s: answer %+v, want one model and r2", sql, resp)
		}
		if resp.FVU == nil {
			noFVU++
		}
	}
	if noFVU == 0 {
		t.Fatal("no statement had an infinite FVU; the test no longer exercises it")
	}
	frames, trailer := decodeStream(t, postBatch(t, s, BatchRequest{SQL: sqls}))
	if len(frames) != len(sqls) || trailer.Results != len(sqls) {
		t.Fatalf("sheet of %d streamed %d frames, trailer %+v", len(sqls), len(frames), trailer)
	}
	for i, f := range frames {
		if f.QueryResponse == nil {
			t.Fatalf("statement %d: %+v, want an answer", i, f)
		}
	}
	t.Logf("%d of %d regressions have an infinite FVU", noFVU, len(sqls))

	const overflow = "SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.2, 0.5)"
	rec := postQuery(t, s, overflow)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "mean is +Inf") {
		t.Fatalf("overflowing mean: status %d, body %q; want 500 naming the mean", rec.Code, rec.Body.String())
	}
	frames, trailer = decodeStream(t, postBatch(t, s, BatchRequest{SQL: []string{
		overflow, "SELECT AVG(u) FROM r1 WITHIN 0.2 OF (0.8, 0.5)", overflow}}))
	if len(frames) != 3 || trailer.Results != 3 {
		t.Fatalf("sheet of 3 streamed %d frames, trailer %+v", len(frames), trailer)
	}
	if !strings.Contains(frames[0].Error, "mean is +Inf") || !strings.Contains(frames[2].Error, "mean is +Inf") {
		t.Errorf("overflowing statements: frames %+v and %+v, want errors naming the mean", frames[0], frames[2])
	}
	if frames[1].QueryResponse == nil || frames[1].Mean == nil || *frames[1].Mean != 1 {
		t.Errorf("finite statement between them: frame %+v, want mean 1", frames[1])
	}
}

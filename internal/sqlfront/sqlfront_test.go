package sqlfront

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT AVG(u) FROM pts WITHIN 0.2 OF (0.5, -0.5);")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokenKind{
		TokenKeyword, TokenKeyword, TokenLParen, TokenIdent, TokenRParen,
		TokenKeyword, TokenIdent, TokenKeyword, TokenNumber, TokenKeyword,
		TokenLParen, TokenNumber, TokenComma, TokenNumber, TokenRParen,
		TokenSemicolon, TokenEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := Lex("select Avg(u) from t within 1 of (0)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokenKeyword || toks[0].Text != "SELECT" {
		t.Errorf("first token = %+v", toks[0])
	}
	if toks[1].Text != "AVG" {
		t.Errorf("avg token = %+v", toks[1])
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("-1.5e-3 +2 .5 42")
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"-1.5e-3", "+2", ".5", "42"}
	for i, want := range texts {
		if toks[i].Kind != TokenNumber || toks[i].Text != want {
			t.Errorf("token %d = %+v, want number %q", i, toks[i], want)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{"SELECT @", "a - b", "a !"} {
		if _, err := Lex(in); err == nil {
			t.Errorf("Lex(%q) should fail", in)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Lex(%q) error type = %T", in, err)
			}
		}
	}
}

// TestIsIdentifier: a name is an identifier when a statement can spell it
// as one non-keyword token that reads back unchanged.
func TestIsIdentifier(t *testing.T) {
	for name, want := range map[string]bool{
		"u": true, "x1": true, "_p_wave": true, "Zeit": true,
		"": false, "p-wave": false, "x 1": false, " x1": false, "1x": false,
		"value": false, "AT": false, "On": false, "x1;": false,
	} {
		if got := IsIdentifier(name); got != want {
			t.Errorf("IsIdentifier(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTokenKindString(t *testing.T) {
	for _, k := range []TokenKind{TokenEOF, TokenIdent, TokenNumber, TokenKeyword, TokenComma, TokenLParen, TokenRParen, TokenSemicolon, TokenStar} {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no String", k)
		}
	}
	if TokenKind(99).String() != "unknown" {
		t.Error("unknown kind should stringify as unknown")
	}
}

func TestParseMeanQuery(t *testing.T) {
	stmt, err := Parse("SELECT AVG(u) FROM seismic WITHIN 0.2 OF (0.5, 0.25);")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtMean || stmt.Output != "u" || stmt.Table != "seismic" {
		t.Errorf("stmt = %+v", stmt)
	}
	if stmt.Theta != 0.2 || len(stmt.Center) != 2 || stmt.Center[1] != 0.25 {
		t.Errorf("selection = θ=%v center=%v", stmt.Theta, stmt.Center)
	}
	if stmt.Approx {
		t.Error("default must be exact")
	}
	if stmt.Norm != 2 {
		t.Errorf("default norm = %v", stmt.Norm)
	}
}

func TestParseApproxAndExactModifiers(t *testing.T) {
	stmt, err := Parse("SELECT APPROX AVG(u) FROM t WITHIN 1 OF (0)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Approx {
		t.Error("APPROX not recognized")
	}
	stmt, err = Parse("SELECT EXACT AVG(u) FROM t WITHIN 1 OF (0)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Approx {
		t.Error("EXACT must clear Approx")
	}
}

func TestParseRegressionQuery(t *testing.T) {
	stmt, err := Parse("SELECT REGRESSION(pwave ON lon, lat) FROM seismic WITHIN 0.3 OF (0.1, 0.9) NORM L2")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtRegression || stmt.Output != "pwave" {
		t.Errorf("stmt = %+v", stmt)
	}
	if len(stmt.Inputs) != 2 || stmt.Inputs[0] != "lon" || stmt.Inputs[1] != "lat" {
		t.Errorf("inputs = %v", stmt.Inputs)
	}
	if stmt.Norm != 2 {
		t.Errorf("norm = %v", stmt.Norm)
	}
}

func TestParseRegressionImplicitInputs(t *testing.T) {
	stmt, err := Parse("SELECT REGRESSION(u) FROM t WITHIN 0.5 OF (0, 0, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Inputs) != 0 {
		t.Errorf("implicit inputs should be empty, got %v", stmt.Inputs)
	}
	stmt, err = Parse("SELECT REGRESSION(u ON *) FROM t WITHIN 0.5 OF (0, 0, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Inputs) != 0 {
		t.Errorf("star inputs should be empty, got %v", stmt.Inputs)
	}
}

func TestParseValueQuery(t *testing.T) {
	stmt, err := Parse("SELECT APPROX VALUE(u) FROM t AT (0.3, 0.4) WITHIN 0.2 OF (0.3, 0.4)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtValue || !stmt.Approx {
		t.Errorf("stmt = %+v", stmt)
	}
	if len(stmt.At) != 2 || stmt.At[0] != 0.3 {
		t.Errorf("At = %v", stmt.At)
	}
}

func TestParseNorms(t *testing.T) {
	cases := map[string]float64{
		"NORM L1":   1,
		"NORM L2":   2,
		"NORM LINF": math.Inf(1),
		"NORM 3":    3,
	}
	for suffix, want := range cases {
		stmt, err := Parse("SELECT AVG(u) FROM t WITHIN 1 OF (0) " + suffix)
		if err != nil {
			t.Errorf("%s: %v", suffix, err)
			continue
		}
		if stmt.Norm != want && !(math.IsInf(want, 1) && math.IsInf(stmt.Norm, 1)) {
			t.Errorf("%s: norm = %v, want %v", suffix, stmt.Norm, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"INSERT INTO t VALUES (1)",
		"SELECT SUM(u) FROM t WITHIN 1 OF (0)",
		"SELECT AVG u FROM t WITHIN 1 OF (0)",
		"SELECT AVG(u) t WITHIN 1 OF (0)",
		"SELECT AVG(u) FROM t WITHIN OF (0)",
		"SELECT AVG(u) FROM t WITHIN -1 OF (0)",
		"SELECT AVG(u) FROM t WITHIN 1 OF ()",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0,)",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM L7",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM 0.5",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) GARBAGE",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) ; extra",
		"SELECT REGRESSION(u ON ) FROM t WITHIN 1 OF (0)",
		"SELECT VALUE(u) FROM t WITHIN 1 OF (0)", // missing AT
		"SELECT AVG(123) FROM t WITHIN 1 OF (0)",
		"SELECT AVG(u) FROM 42 WITHIN 1 OF (0)",
		"SELECT AVG(u) FROM t WITHIN 1 OF 0",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0 0)",
		"SELECT AVG(u) FROM t WITHIN 1 OF (0) NORM",
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	_, err := Parse("SELECT AVG(u) FROM t WITHIN 1 OF (0) GARBAGE")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("error type = %T", err)
	}
	if se.Pos <= 0 {
		t.Errorf("position = %d", se.Pos)
	}
	if !strings.Contains(se.Error(), "position") {
		t.Errorf("error message %q should mention position", se.Error())
	}
}

func TestStatementKindString(t *testing.T) {
	if StmtMean.String() != "mean" || StmtRegression.String() != "regression" || StmtValue.String() != "value" {
		t.Error("kind strings wrong")
	}
	if StatementKind(9).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

func TestParseWhitespaceAndCaseInsensitivity(t *testing.T) {
	stmt, err := Parse("  select   approx   avg ( u )   from   t   within   0.5   of  ( 1 , 2 )  ")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind != StmtMean || !stmt.Approx || stmt.Theta != 0.5 || len(stmt.Center) != 2 {
		t.Errorf("stmt = %+v", stmt)
	}
}

func TestParseHighDimensionalCenter(t *testing.T) {
	stmt, err := Parse("SELECT AVG(u) FROM t WITHIN 2.5 OF (1, 2, 3, 4, 5, 6, 7, 8)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Center) != 8 || stmt.Center[7] != 8 {
		t.Errorf("center = %v", stmt.Center)
	}
}

func BenchmarkParseRegression(b *testing.B) {
	q := "SELECT REGRESSION(u ON x1, x2, x3) FROM pts WITHIN 0.25 OF (0.5, 0.5, 0.5) NORM L2;"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

package sqlfront

import (
	"math"

	"llmq/internal/decimal"
)

// StatementKind distinguishes the three analytics statements of the dialect.
type StatementKind int

// Statement kinds.
const (
	// StmtMean is the Q1 mean-value query: SELECT AVG(u) FROM t WITHIN θ OF (x...).
	StmtMean StatementKind = iota
	// StmtRegression is the Q2 linear-regression query:
	// SELECT REGRESSION(u ON x1, ...) FROM t WITHIN θ OF (x...).
	StmtRegression
	// StmtValue is the data-value prediction query:
	// SELECT VALUE(u) FROM t AT (x...) WITHIN θ OF (x...).
	StmtValue
)

// String names the statement kind in lower case.
func (k StatementKind) String() string {
	switch k {
	case StmtMean:
		return "mean"
	case StmtRegression:
		return "regression"
	case StmtValue:
		return "value"
	default:
		return "unknown"
	}
}

// Statement is the parsed form of one analytics query.
type Statement struct {
	// Kind selects between Q1, Q2 and data-value prediction.
	Kind StatementKind
	// Output is the output attribute name inside AVG(...)/REGRESSION(...)/VALUE(...).
	// A server answers only the relation's output attribute, when that is an
	// identifier (IsIdentifier).
	Output string
	// Inputs holds the explanatory attribute names of a REGRESSION(u ON ...)
	// query; empty (no ON list, or ON *) means all non-output attributes. A
	// server answers only the relation's input attributes in column order,
	// which is also what the empty list stands for, when every one of them
	// is an identifier (IsIdentifier).
	Inputs []string
	// Table is the relation name after FROM. A server holds one relation,
	// so it does not check the name.
	Table string
	// Theta is the selection radius after WITHIN.
	Theta float64
	// Center is the selection centre after OF.
	Center []float64
	// At is the prediction point of a VALUE query (empty otherwise).
	At []float64
	// Norm is the Lp norm: 1, 2 or +Inf. Defaults to 2.
	Norm float64
	// Approx is true when the APPROX modifier requests the model-based
	// (LLM) execution path; false requests exact execution. EXACT may be
	// given explicitly and is the default.
	Approx bool
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	tokens []Token
	pos    int
}

// Parse parses a single statement of the analytics dialect.
func Parse(input string) (*Statement, error) {
	// The tokens of a statement over up to 8 dimensions without an AT
	// point fit in buf, which stays on the stack: nothing the parser
	// returns holds a Token.
	var buf [32]Token
	tokens, err := lex(input, buf[:0])
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon, then EOF.
	if p.peek().Kind == TokenSemicolon {
		p.next()
	}
	if tok := p.peek(); tok.Kind != TokenEOF {
		return nil, errf(tok.Pos, "unexpected trailing input %q", tok.Text)
	}
	return stmt, nil
}

func (p *parser) peek() Token { return p.tokens[p.pos] }

func (p *parser) next() Token {
	t := p.tokens[p.pos]
	if t.Kind != TokenEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectKeyword(kw string) (Token, error) {
	t := p.next()
	if t.Kind != TokenKeyword || t.Text != kw {
		return t, errf(t.Pos, "expected %s, got %q", kw, t.Text)
	}
	return t, nil
}

func (p *parser) expectKind(kind TokenKind) (Token, error) {
	t := p.next()
	if t.Kind != kind {
		return t, errf(t.Pos, "expected %s, got %q", kind, t.Text)
	}
	return t, nil
}

func (p *parser) parseStatement() (*Statement, error) {
	if _, err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &Statement{Norm: 2}
	// Optional APPROX / EXACT modifier.
	switch t := p.peek(); {
	case t.Kind == TokenKeyword && t.Text == "APPROX":
		stmt.Approx = true
		p.next()
	case t.Kind == TokenKeyword && t.Text == "EXACT":
		stmt.Approx = false
		p.next()
	}
	// Aggregate / projection clause.
	t := p.next()
	if t.Kind != TokenKeyword {
		return nil, errf(t.Pos, "expected AVG, REGRESSION or VALUE, got %q", t.Text)
	}
	switch t.Text {
	case "AVG":
		stmt.Kind = StmtMean
		out, err := p.parseParenIdent()
		if err != nil {
			return nil, err
		}
		stmt.Output = out
	case "REGRESSION":
		stmt.Kind = StmtRegression
		out, inputs, err := p.parseRegressionClause()
		if err != nil {
			return nil, err
		}
		stmt.Output = out
		stmt.Inputs = inputs
	case "VALUE":
		stmt.Kind = StmtValue
		out, err := p.parseParenIdent()
		if err != nil {
			return nil, err
		}
		stmt.Output = out
	default:
		return nil, errf(t.Pos, "expected AVG, REGRESSION or VALUE, got %q", t.Text)
	}
	if _, err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expectKind(TokenIdent)
	if err != nil {
		return nil, err
	}
	stmt.Table = tbl.Text
	// VALUE queries take an AT (point) clause before the selection.
	if stmt.Kind == StmtValue {
		if _, err := p.expectKeyword("AT"); err != nil {
			return nil, err
		}
		at, err := p.parseVector()
		if err != nil {
			return nil, err
		}
		stmt.At = at
	}
	if _, err := p.expectKeyword("WITHIN"); err != nil {
		return nil, err
	}
	radius, err := p.parseNumber()
	if err != nil {
		return nil, err
	}
	if radius < 0 {
		return nil, errf(p.peek().Pos, "radius must be non-negative, got %v", radius)
	}
	stmt.Theta = radius
	if _, err := p.expectKeyword("OF"); err != nil {
		return nil, err
	}
	center, err := p.parseVector()
	if err != nil {
		return nil, err
	}
	stmt.Center = center
	// Optional NORM clause.
	if t := p.peek(); t.Kind == TokenKeyword && t.Text == "NORM" {
		p.next()
		norm, err := p.parseNorm()
		if err != nil {
			return nil, err
		}
		stmt.Norm = norm
	}
	return stmt, nil
}

// parseParenIdent parses "( ident )".
func (p *parser) parseParenIdent() (string, error) {
	if _, err := p.expectKind(TokenLParen); err != nil {
		return "", err
	}
	id, err := p.expectKind(TokenIdent)
	if err != nil {
		return "", err
	}
	if _, err := p.expectKind(TokenRParen); err != nil {
		return "", err
	}
	return id.Text, nil
}

// parseRegressionClause parses "( output ON in1, in2, ... )" or
// "( output ON * )" or just "( output )".
func (p *parser) parseRegressionClause() (string, []string, error) {
	if _, err := p.expectKind(TokenLParen); err != nil {
		return "", nil, err
	}
	out, err := p.expectKind(TokenIdent)
	if err != nil {
		return "", nil, err
	}
	var inputs []string
	if t := p.peek(); t.Kind == TokenKeyword && t.Text == "ON" {
		p.next()
		if p.peek().Kind == TokenStar {
			p.next()
		} else {
			for {
				id, err := p.expectKind(TokenIdent)
				if err != nil {
					return "", nil, err
				}
				inputs = append(inputs, id.Text)
				if p.peek().Kind != TokenComma {
					break
				}
				p.next()
			}
		}
	}
	if _, err := p.expectKind(TokenRParen); err != nil {
		return "", nil, err
	}
	return out.Text, inputs, nil
}

// parseVector parses "( num, num, ... )".
func (p *parser) parseVector() ([]float64, error) {
	if _, err := p.expectKind(TokenLParen); err != nil {
		return nil, err
	}
	n := 1 // one coordinate per comma before the closing parenthesis, plus one
	for _, t := range p.tokens[p.pos:] {
		if t.Kind == TokenRParen || t.Kind == TokenEOF {
			break
		}
		if t.Kind == TokenComma {
			n++
		}
	}
	out := make([]float64, 0, n)
	for {
		v, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		t := p.next()
		if t.Kind == TokenRParen {
			break
		}
		if t.Kind != TokenComma {
			return nil, errf(t.Pos, "expected ',' or ')', got %q", t.Text)
		}
	}
	return out, nil
}

func (p *parser) parseNumber() (float64, error) {
	t := p.next()
	if t.Kind != TokenNumber {
		return 0, errf(t.Pos, "expected a number, got %q", t.Text)
	}
	v, err := decimal.Parse(t.Text)
	if err != nil {
		return 0, errf(t.Pos, "invalid number %q", t.Text)
	}
	return v, nil
}

// parseNorm parses the NORM argument: L1, L2, LINF (as identifiers) or a
// plain number.
func (p *parser) parseNorm() (float64, error) {
	t := p.next()
	switch t.Kind {
	case TokenIdent:
		switch t.Text {
		case "L1", "l1":
			return 1, nil
		case "L2", "l2":
			return 2, nil
		case "LINF", "linf", "Linf":
			return math.Inf(1), nil
		}
		return 0, errf(t.Pos, "unknown norm %q (want L1, L2 or LINF)", t.Text)
	case TokenNumber:
		v, err := decimal.Parse(t.Text)
		if err != nil || v < 1 {
			return 0, errf(t.Pos, "invalid norm %q", t.Text)
		}
		return v, nil
	default:
		return 0, errf(t.Pos, "expected a norm, got %q", t.Text)
	}
}

// Package sqlfront implements the declarative front-end for the analytics
// queries of the paper: a small SQL-like dialect for mean-value (Q1) and
// linear-regression (Q2) queries over data subspaces defined by radius
// selections, e.g.
//
//	SELECT AVG(u) FROM seismic WITHIN 0.2 OF (0.5, 0.5);
//	SELECT REGRESSION(u ON lon, lat) FROM seismic WITHIN 0.2 OF (0.5, 0.5) NORM L2;
//	SELECT APPROX AVG(u) FROM seismic WITHIN 0.2 OF (0.5, 0.5);
//
// The APPROX modifier routes the query to the trained LLM model instead of
// the exact executor. The package provides the tokenizer, the AST and the
// parser; binding to executors lives with the callers (cmd/llmq and the
// examples).
package sqlfront

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies a lexical token.
type TokenKind int

// Token kinds.
const (
	TokenEOF TokenKind = iota
	TokenIdent
	TokenNumber
	TokenKeyword
	TokenComma
	TokenLParen
	TokenRParen
	TokenSemicolon
	TokenStar
)

// String names the token kind as syntax errors print it.
func (k TokenKind) String() string {
	switch k {
	case TokenEOF:
		return "EOF"
	case TokenIdent:
		return "identifier"
	case TokenNumber:
		return "number"
	case TokenKeyword:
		return "keyword"
	case TokenComma:
		return ","
	case TokenLParen:
		return "("
	case TokenRParen:
		return ")"
	case TokenSemicolon:
		return ";"
	case TokenStar:
		return "*"
	default:
		return "unknown"
	}
}

// Token is one lexical token with its source position (1-based column).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// keywords recognized by the dialect (case-insensitive).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WITHIN": true, "OF": true,
	"AVG": true, "REGRESSION": true, "ON": true, "NORM": true,
	"APPROX": true, "EXACT": true, "PREDICT": true, "VALUE": true,
	"AT": true,
}

// maxKeywordLen is the length of the longest keyword, REGRESSION: an ASCII
// identifier longer than this is not one.
const maxKeywordLen = 10

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Pos     int
	Message string
}

// Error formats the error with the byte position it occurred at.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql: syntax error at position %d: %s", e.Pos, e.Message)
}

func errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Message: fmt.Sprintf(format, args...)}
}

// Lex tokenizes the input statement.
func Lex(input string) ([]Token, error) {
	// A token and the separator after it take two bytes or more in any
	// statement written with spaces or multi-digit numbers, so one
	// allocation holds them; denser input grows the slice.
	return lex(input, make([]Token, 0, len(input)/2+2))
}

// IsIdentifier reports whether a statement can spell name: whether name
// lexes as exactly one identifier, not a keyword, that reads back as name.
func IsIdentifier(name string) bool {
	tokens, err := Lex(name)
	return err == nil && len(tokens) == 2 && tokens[0].Kind == TokenIdent && tokens[0].Text == name
}

// lex appends the tokens of input to tokens.
func lex(input string, tokens []Token) ([]Token, error) {
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == ',':
			tokens = append(tokens, Token{Kind: TokenComma, Text: ",", Pos: i + 1})
			i++
		case c == '(':
			tokens = append(tokens, Token{Kind: TokenLParen, Text: "(", Pos: i + 1})
			i++
		case c == ')':
			tokens = append(tokens, Token{Kind: TokenRParen, Text: ")", Pos: i + 1})
			i++
		case c == ';':
			tokens = append(tokens, Token{Kind: TokenSemicolon, Text: ";", Pos: i + 1})
			i++
		case c == '*':
			tokens = append(tokens, Token{Kind: TokenStar, Text: "*", Pos: i + 1})
			i++
		case unicode.IsDigit(c) || c == '-' || c == '+' || c == '.':
			start := i
			i++
			for i < n {
				d := rune(input[i])
				if unicode.IsDigit(d) || d == '.' || d == 'e' || d == 'E' ||
					((d == '-' || d == '+') && (input[i-1] == 'e' || input[i-1] == 'E')) {
					i++
					continue
				}
				break
			}
			text := input[start:i]
			if text == "-" || text == "+" || text == "." {
				return nil, errf(start+1, "unexpected character %q", text)
			}
			tokens = append(tokens, Token{Kind: TokenNumber, Text: text, Pos: start + 1})
		case unicode.IsLetter(c) || c == '_':
			start := i
			i++
			for i < n {
				d := rune(input[i])
				if unicode.IsLetter(d) || unicode.IsDigit(d) || d == '_' {
					i++
					continue
				}
				break
			}
			kind, text := classify(input[start:i])
			tokens = append(tokens, Token{Kind: kind, Text: text, Pos: start + 1})
		default:
			return nil, errf(i+1, "unexpected character %q", string(c))
		}
	}
	tokens = append(tokens, Token{Kind: TokenEOF, Pos: n + 1})
	return tokens, nil
}

// classify decides whether an identifier is a keyword, returning the kind
// and the token text: strings.ToUpper(text) for a keyword, text otherwise.
// An ASCII identifier is upper-cased on the stack, so only a keyword not
// written in upper case allocates its text. One with a byte past ASCII
// keeps strings.ToUpper, whose Unicode case mapping may change its length.
func classify(text string) (TokenKind, string) {
	var up [maxKeywordLen]byte
	lower := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c >= utf8.RuneSelf:
			if u := strings.ToUpper(text); keywords[u] {
				return TokenKeyword, u
			}
			return TokenIdent, text
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
			lower = true
		}
		if i < len(up) {
			up[i] = c
		}
	}
	switch {
	case len(text) > len(up) || !keywords[string(up[:len(text)])]:
		return TokenIdent, text
	case lower:
		return TokenKeyword, string(up[:len(text)])
	}
	return TokenKeyword, text
}

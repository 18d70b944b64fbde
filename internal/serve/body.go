package serve

import (
	"bytes"
	"net/http"
	"sync"

	"llmq/internal/core"
	"llmq/internal/decimal"
)

// A /train or /query body is read once into a pooled buffer and scanned in
// one pass when it is written in its canonical form. Anything else is
// decoded by encoding/json from the same bytes, so encoding/json decides
// every reject and its text.

// readBody buffers a request body into buf, bounded by maxBodyBytes. A zero
// status means success; the error statuses and texts are decodeBody's.
func readBody(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	status, err := bodyError(err)
	return buf.Bytes(), status, err
}

// queryBuf is the memory one /query request reads its body into and
// encodes its answer in, pooled like trainBuf: a warm server reads and
// answers a statement without allocating for either.
type queryBuf struct {
	body bytes.Buffer
	out  []byte
}

var queryBufs = sync.Pool{New: func() any { return new(queryBuf) }}

// scanQuery reads a /query body written in the canonical form
//
//	{"sql":"…"}
//
// with JSON whitespace anywhere between tokens and a statement of printable
// ASCII without escapes, and declines (ok false) on anything else: an
// escape, a byte past ASCII or a control byte in the string, another,
// duplicate or differently cased key, null, bytes after the closing brace.
// The statement is copied out of body, which returns to the pool.
func scanQuery(body []byte) (sql string, ok bool) {
	s := bodyScanner{b: body}
	if !s.eat('{') || !s.lit(`"sql"`) || !s.eat(':') {
		return "", false
	}
	text, ok := s.str()
	if !ok || !s.eat('}') {
		return "", false
	}
	if s.ws(); s.i != len(s.b) {
		return "", false
	}
	return string(text), true
}

// trainBuf is the memory one /train request decodes into: the body bytes,
// the pairs and one flat array holding every centre back to back. It is
// pooled, so a warm server decodes a batch in O(1) allocations however many
// pairs it carries; ingest returns it once the backend has trained the
// pairs (training copies what it keeps, nothing retains a centre slice).
type trainBuf struct {
	body  bytes.Buffer
	pairs []core.TrainingPair
	flat  []float64
}

var trainBufs = sync.Pool{New: func() any { return new(trainBuf) }}

// scan decodes a /train body in one pass when it is written in the
// canonical grammar, and declines (ok false) on anything else:
//
//	{"pairs":[{"center":[x1,…,xd],"theta":θ,"answer":y}, …]}
//
// with JSON whitespace anywhere between tokens, the three pair keys in any
// order but each exactly once, and strict JSON numbers converted by
// decimal.Parse, bit for bit as encoding/json converts them. Unknown,
// duplicate, escaped or differently cased keys, null, a missing field,
// bytes after the closing brace, an out-of-range number, a pair
// core.NewQuery would reject and more than maxTrainPairs pairs all decline.
// A declined body goes through encoding/json and convertPairs, so scan
// never decides what a request that is not plainly valid means — only how
// fast a plainly valid one is read. The returned pairs alias tb and are
// valid until it returns to the pool.
func (tb *trainBuf) scan(body []byte) ([]core.TrainingPair, bool) {
	s := bodyScanner{b: body}
	if !s.eat('{') || !s.lit(`"pairs"`) || !s.eat(':') || !s.eat('[') {
		return nil, false
	}
	tb.pairs, tb.flat = tb.pairs[:0], tb.flat[:0]
	for {
		if len(tb.pairs) == maxTrainPairs || !s.eat('{') {
			return nil, false
		}
		var (
			p    core.TrainingPair
			seen [3]bool // center, theta, answer
		)
		for {
			var field int
			switch {
			case s.lit(`"center"`):
				field = 0
			case s.lit(`"theta"`):
				field = 1
			case s.lit(`"answer"`):
				field = 2
			default:
				return nil, false
			}
			if seen[field] || !s.eat(':') {
				return nil, false
			}
			seen[field] = true
			switch field {
			case 0:
				if !s.eat('[') {
					return nil, false
				}
				start := len(tb.flat)
				for {
					x, ok := s.number()
					if !ok {
						return nil, false
					}
					tb.flat = append(tb.flat, x)
					if !s.eat(',') {
						break
					}
				}
				if !s.eat(']') {
					return nil, false
				}
				// When flat grows, the centres cut so far keep the array
				// they were cut from, values intact; a warm buffer never
				// grows.
				p.Query.Center = tb.flat[start:len(tb.flat):len(tb.flat)]
			case 1:
				var ok bool
				if p.Query.Theta, ok = s.number(); !ok || p.Query.Theta < 0 {
					return nil, false
				}
			case 2:
				var ok bool
				if p.Answer, ok = s.number(); !ok {
					return nil, false
				}
			}
			if !s.eat(',') {
				break
			}
		}
		if seen != [3]bool{true, true, true} || !s.eat('}') {
			return nil, false
		}
		tb.pairs = append(tb.pairs, p)
		if !s.eat(',') {
			break
		}
	}
	if !s.eat(']') || !s.eat('}') {
		return nil, false
	}
	if s.ws(); s.i != len(s.b) {
		return nil, false
	}
	return tb.pairs, true
}

// bodyScanner is a cursor over a request body.
type bodyScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *bodyScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it is next.
func (s *bodyScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit skips whitespace and consumes tok if it is next.
func (s *bodyScanner) lit(tok string) bool {
	s.ws()
	if len(s.b)-s.i >= len(tok) && string(s.b[s.i:s.i+len(tok)]) == tok {
		s.i += len(tok)
		return true
	}
	return false
}

// str skips whitespace and consumes a string of printable ASCII with no
// escapes, returning its contents — the bytes encoding/json would decode it
// to. A backslash, a control byte, DEL or a byte past ASCII declines.
func (s *bodyScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			text := s.b[s.i:j]
			s.i = j + 1
			return text, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number skips whitespace and consumes one number of the JSON grammar —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — declining what
// strconv.ParseFloat alone would let through ("+1", ".5", "1.", "0x1p-2",
// "Inf") and what it reports out of range (1e309). The grammar decides;
// decimal.Parse converts the bytes it accepted in place.
func (s *bodyScanner) number() (float64, bool) {
	s.ws()
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	x, err := decimal.Parse(b[s.i:i])
	if err != nil {
		return 0, false
	}
	s.i = i
	return x, true
}

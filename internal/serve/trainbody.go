package serve

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"

	"llmq/internal/core"
	"llmq/internal/vector"
)

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

// read buffers the request body, bounded by maxBodyBytes. A zero status
// means success; the error statuses and texts are decodeBody's.
func (tb *trainBuf) read(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	tb.body.Reset()
	_, err := tb.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	status, err := bodyError(err)
	return tb.body.Bytes(), status, err
}

// scan decodes a /train body in one pass when it is written in the
// canonical grammar, and declines (ok false) on anything else:
//
//	{"pairs":[{"center":[x1,…,xd],"theta":θ,"answer":y}, …]}
//
// with JSON whitespace anywhere between tokens, the three pair keys in any
// order but each exactly once, and strict JSON numbers converted by
// strconv.ParseFloat exactly as encoding/json converts them. Unknown,
// duplicate, escaped or differently cased keys, null, a missing field,
// bytes after the closing brace, an out-of-range number, a pair
// core.NewQuery would reject and more than maxTrainPairs pairs all decline.
// A declined body goes through encoding/json and convertPairs, so scan
// never decides what a request that is not plainly valid means — only how
// fast a plainly valid one is read. The returned pairs alias tb and are
// valid until it returns to the pool.
func (tb *trainBuf) scan(body []byte) ([]core.TrainingPair, bool) {
	s := trainScanner{b: body}
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
				p.Query.Center = vector.Vec(tb.flat[start:len(tb.flat):len(tb.flat)])
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

// trainScanner is a cursor over a /train body.
type trainScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *trainScanner) ws() {
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
func (s *trainScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit skips whitespace and consumes tok if it is next.
func (s *trainScanner) lit(tok string) bool {
	s.ws()
	if len(s.b)-s.i >= len(tok) && string(s.b[s.i:s.i+len(tok)]) == tok {
		s.i += len(tok)
		return true
	}
	return false
}

// number skips whitespace and consumes one number of the JSON grammar —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — declining what
// ParseFloat alone would let through ("+1", ".5", "1.", "0x1p-2", "Inf")
// and what it reports out of range (1e309).
func (s *trainScanner) number() (float64, bool) {
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
	x, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return x, true
}

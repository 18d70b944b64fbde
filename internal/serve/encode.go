package serve

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendAnswer appends resp as one JSON line: byte for byte what
// json.NewEncoder(w).Encode writes for the /query body, or, with index ≥ 0,
// for the /query/batch result frame resultFrame(index, resp). That is the
// field order and omitempty rules of QueryResponse and LocalModelJSON, a nil
// slice as null, encoding/json's float format and HTML-escaped strings, and
// the trailing newline. A NaN or an infinity, which encoding/json refuses,
// is reported by name; dst then holds a partial line.
func appendAnswer(dst []byte, index int, resp *QueryResponse) ([]byte, error) {
	e := answerEncoder{b: append(dst, '{')}
	if index >= 0 {
		e.b = append(e.b, `"index":`...)
		e.b = strconv.AppendInt(e.b, int64(index), 10)
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, `"kind":`...)
	e.b = appendString(e.b, resp.Kind)
	e.b = append(e.b, `,"approx":`...)
	e.b = strconv.AppendBool(e.b, resp.Approx)
	if resp.Mean != nil {
		e.float(",mean", *resp.Mean)
	}
	if resp.Value != nil {
		e.float(",value", *resp.Value)
	}
	if len(resp.Models) > 0 {
		e.b = append(e.b, `,"models":[`...)
		for i, m := range resp.Models {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float("{intercept", m.Intercept)
			e.floats(",slope", m.Slope)
			e.floats(",center", m.Center)
			e.float(",theta", m.Theta)
			e.float(",weight", m.Weight)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if resp.Tuples != 0 {
		e.b = append(e.b, `,"tuples":`...)
		e.b = strconv.AppendInt(e.b, int64(resp.Tuples), 10)
	}
	if resp.FVU != nil {
		e.float(",fvu", *resp.FVU)
	}
	if resp.R2 != nil {
		e.float(",r2", *resp.R2)
	}
	if resp.Degraded {
		e.b = append(e.b, `,"degraded":true`...)
	}
	e.b = append(e.b, `,"elapsed":`...)
	e.b = appendString(e.b, resp.Elapsed)
	return append(e.b, "}\n"...), e.err
}

// answerEncoder is appendAnswer's buffer and the first number it could not
// encode.
type answerEncoder struct {
	b   []byte
	err error
}

// key appends a field name: field is the separator byte before it (',' or
// '{') followed by the name.
func (e *answerEncoder) key(field string) {
	e.b = append(e.b, field[0], '"')
	e.b = append(e.b, field[1:]...)
	e.b = append(e.b, '"', ':')
}

// float appends one float64 field.
func (e *answerEncoder) float(field string, x float64) {
	e.key(field)
	e.number(field[1:], x)
}

// floats appends one []float64 field; nil is null.
func (e *answerEncoder) floats(field string, xs []float64) {
	e.key(field)
	if xs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range xs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.number(field[1:], x)
	}
	e.b = append(e.b, ']')
}

// number appends x as encoding/json formats a float64: the shortest
// round-trip digits, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent not zero-padded.
func (e *answerEncoder) number(name string, x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		if e.err == nil {
			e.err = fmt.Errorf("the answer's %s is %v, which JSON cannot carry", name, x)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, x, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// appendString appends s quoted as json.Encoder quotes a string with its
// default HTML escaping: <, > and & as the \u escapes of U+003C, U+003E
// and U+0026, control bytes escaped, each byte of invalid UTF-8 as the
// escape of U+FFFD, and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

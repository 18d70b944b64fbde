// Package decimal converts the numbers the server reads — CSV fields at
// boot, /train body numbers, SQL literals — to float64. Parse is
// strconv.ParseFloat(s, 64) to the bit and to the error text: plain decimal
// text of at most 19 significant digits is read in one pass and converted
// through strconv's exact float path, then the Eisel–Lemire algorithm
// (Lemire, "Number Parsing at a Gigabyte per Second", Software: Practice and
// Experience, 2021); everything else goes to strconv.ParseFloat unchanged.
package decimal

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// minExp10 and maxExp10 are the powers of ten pow10 holds, both inclusive.
const (
	minExp10 = -64
	maxExp10 = 64
)

var (
	// pow10[q-minExp10] is 10^q as a 128-bit mantissa {lo, hi}, rounded
	// down, with the top bit of hi set: the rows of strconv's
	// detailedPowersOfTen from 1e-64 to 1e64.
	pow10 [maxExp10 - minExp10 + 1][2]uint64
	// exact[k] is 10^k, which a float64 holds exactly for k ≤ 22.
	exact = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
)

func init() {
	p, m, ten, one := big.NewInt(1), new(big.Int), big.NewInt(10), big.NewInt(1)
	set := func(q int) {
		var b [16]byte
		m.FillBytes(b[:])
		pow10[q-minExp10] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	for q := 0; q <= maxExp10; q, p = q+1, p.Mul(p, ten) {
		if n := p.BitLen(); n > 128 {
			m.Rsh(p, uint(n-128))
		} else {
			m.Lsh(p, uint(128-n))
		}
		set(q)
		if q > 0 {
			// 2^(127+n) / 10^q lies strictly between 2^127 and 2^128.
			m.Quo(m.Lsh(one, uint(127+p.BitLen())), p)
			set(-q)
		}
	}
}

// Parse returns strconv.ParseFloat(string(s), 64): the same bits and the
// same error for every input. A []byte argument is read in place; only a
// number Parse hands to strconv (a 20th significant digit, an exponent of
// five digits or outside 10^±64, a halfway case Eisel–Lemire cannot settle,
// or any other grammar: "+1", ".5", "1.", "Inf", "0x1p-2", "1_0") is
// converted to a string.
func Parse[T string | []byte](s T) (float64, error) {
	if man, exp, neg, n, ok := read(s); ok && n == len(s) {
		if f, ok := convert(man, exp, neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(s), 64)
}

// Prefix reads the number b starts with, in place: n is where the grammar
// -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? stops matching b (the longest
// prefix it matches), and v is that prefix's value. ok is true exactly when
// Parse(b[:n]) converts the prefix itself rather than handing it to strconv,
// so v then has the bits of strconv.ParseFloat(string(b[:n]), 64) and is
// finite. A caller that needs the number to end at a delimiter checks b[n].
func Prefix(b []byte) (v float64, n int, ok bool) {
	man, exp, neg, n, ok := read(b)
	if ok {
		v, ok = convert(man, exp, neg)
	}
	return v, n, ok
}

// read scans the longest prefix of s that -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?
// matches as man·10^exp and returns its length n; ok is false when no
// prefix matches, on a 20th significant digit (man has wrapped) and on a
// fifth exponent digit.
func read[T string | []byte](s T) (man uint64, exp int, neg bool, n int, ok bool) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		neg, i = true, 1
	}
	from := i
	if i+8 <= len(s) && s[i+1]-'0' <= 9 { // not for the common one-digit integer part
		man, i = eight(s, i, 0)
	}
	man, i = digits(s, i, man)
	if i == from {
		return 0, 0, false, 0, false
	}
	// nd counts the digits read. A leading zero is not significant, but it
	// adds nothing to man either, so it is counted out only when it matters.
	nd := i - from
	if i+1 < len(s) && s[i] == '.' && s[i+1]-'0' <= 9 {
		dot := i + 1
		if i = dot; i+8 <= len(s) {
			man, i = eight(s, i, man)
		}
		man, i = digits(s, i, man)
		nd, exp = nd+i-dot, dot-i
	}
	for j := from; nd > 19 && j < i && (s[j] == '0' || s[j] == '.'); j++ {
		if s[j] == '0' {
			nd-- // nor is a zero after the point ahead of every other digit
		}
	}
	if i+1 < len(s) && (s[i] == 'e' || s[i] == 'E') {
		j := i + 1
		eneg := s[j] == '-'
		if s[j] == '-' || s[j] == '+' {
			j++
		}
		if e, end := digits(s, j, 0); end > j { // else the exponent is not part of the number
			if end-j > 4 {
				return 0, 0, false, end, false
			}
			if eneg {
				exp -= int(e)
			} else {
				exp += int(e)
			}
			i = end
		}
	}
	return man, exp, neg, i, nd <= 19
}

// digits adds the run of decimal digits of s from i on to acc and returns
// where the run ends. The sum wraps, which only a run past 19 significant
// digits reaches.
func digits[T string | []byte](s T, i int, acc uint64) (uint64, int) {
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		acc = acc*10 + uint64(s[i]-'0')
	}
	return acc, i
}

// eight is digits eight bytes at a time, while eight bytes remain, and
// returns where the run ends; it leaves only a run that reaches the last
// seven bytes of s to digits. Each step is Lemire's SWAR conversion — one
// 64-bit load, a digit mask and three multiplies — of the step's leading
// digits, which the mask counts. It wraps as digits does.
func eight[T string | []byte](s T, i int, acc uint64) (uint64, int) {
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		w -= 0x3030303030303030
		w = w*10 + w>>8 // each even byte holds two digits' value
		w = (w&0x000000FF000000FF*(100+1000000<<32) + w>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
		acc = acc*100000000 + uint64(uint32(w))
	}
	return acc, i
}

// convert returns the float64 nearest man·10^exp (ties to even), negated if
// neg, as strconv's atof64exact and eiselLemire64 do; ok is false where
// both of them would give up.
func convert(man uint64, exp int, neg bool) (float64, bool) {
	if man>>52 == 0 { // man is exact, so one rounding op is correctly rounded
		f := float64(man)
		if neg {
			f = -f // -0 for a zero man
		}
		switch {
		case exp == 0 || man == 0:
			return f, true
		case exp > 22 && exp <= 15+22: // 10^(exp-22)·man must stay exact
			if f *= exact[exp-22]; f <= 1e15 && f >= -1e15 {
				return f * exact[22], true
			}
		case exp > 0 && exp <= 22:
			return f * exact[exp], true
		case exp < 0 && exp >= -22:
			return f / exact[-exp], true
		}
	}
	if exp < minExp10 || exp > maxExp10 {
		return 0, false
	}
	// Eisel–Lemire, step for step as strconv's eiselLemire64.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp>>16+64+1023) - uint64(clz)
	row := &pow10[exp-minExp10]
	xHi, xLo := bits.Mul64(man, row[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, row[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // halfway between two floats: strconv decides
	}
	mant = (mant + mant&1) >> 1
	if mant>>53 > 0 {
		mant >>= 1
		retExp2++
	}
	b := retExp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

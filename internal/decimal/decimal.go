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
	if man, exp, neg, ok := read(s); ok {
		if f, ok := convert(man, exp, neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(s), 64)
}

// read scans -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)? as man·10^exp; ok is
// false on any other text, on a 20th significant digit (man has wrapped)
// and on a fifth exponent digit.
func read[T string | []byte](s T) (man uint64, exp int, neg, ok bool) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		neg, i = true, 1
	}
	from := i
	for i < len(s) && s[i] == '0' {
		i++ // a leading zero is not significant
	}
	sig := i
	man, i = digits(s, i, 0)
	nd := i - sig
	if i == from {
		return 0, 0, false, false
	}
	if i < len(s) && s[i] == '.' {
		dot := i + 1
		for i = dot; nd == 0 && i < len(s) && s[i] == '0'; i++ {
		} // nor is a zero after the point ahead of every other digit
		sig = i
		if man, i = digits(s, i, man); i == dot {
			return 0, 0, false, false
		}
		nd, exp = nd+i-sig, dot-i
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := i < len(s) && s[i] == '-'
		if i < len(s) && (s[i] == '-' || s[i] == '+') {
			i++
		}
		e, efrom := uint64(0), i
		if e, i = digits(s, i, 0); i == efrom || i-efrom > 4 {
			return 0, 0, false, false
		}
		if eneg {
			exp -= int(e)
		} else {
			exp += int(e)
		}
	}
	return man, exp, neg, nd <= 19 && i == len(s)
}

// digits adds the run of decimal digits of s from i on to acc and returns
// where the run ends.
func digits[T string | []byte](s T, i int, acc uint64) (uint64, int) {
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		acc = acc*10 + uint64(s[i]-'0')
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

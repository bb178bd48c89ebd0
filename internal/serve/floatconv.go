// Float text conversion for the wire codec: the decoder's number scan
// with its decimal-to-binary fast paths, and the shortest-digit encoder.
// Both are held bit- and byte-identical to strconv (floatconv_test.go).
//
// eiselLemire, ryuShortest, ryuDigits, ryuDigits32 and mulPow10 are
// adapted from the Go standard library (strconv/eisel_lemire.go and
// strconv/ftoaryu.go), which carries this notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Powers of ten from pow10Min to pow10Max, as 128-bit mantissas rounded
// down: pow10Table[k-pow10Min] = {low word, high word} of the m with
// the high bit set and 10^k ≈ m · 2^(floor(k · log2(10)) - 127). Both
// users apply that implied exponent as a linear expression in k. The
// table is computed once from exact big integers, so it is not
// hand-typed and cannot drift from its definition.
const (
	pow10Min = -348
	pow10Max = 347
)

var pow10Table = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|k|
	var m big.Int
	var buf [16]byte
	for k := 0; k <= -pow10Min; k++ {
		for _, e := range [2]int{k, -k} {
			if e > pow10Max || (k == 0 && e < 0) {
				continue
			}
			if e >= 0 {
				// 10^e shifted to 128 significant bits.
				if s := p.BitLen() - 128; s > 0 {
					m.Rsh(p, uint(s))
				} else {
					m.Lsh(p, uint(-s))
				}
			} else {
				// 2^(127+len) / 10^-e lies in (2^127, 2^128).
				m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
				m.Quo(&m, p)
			}
			m.FillBytes(buf[:])
			t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
		}
		p.Mul(p, ten)
	}
	return t
}()

// pow10u64[k] = 10^k, for k up to 19.
var pow10u64 = func() (t [20]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * 10
	}
	return t
}()

// pow5u64[k] = 5^k, for k up to 27.
var pow5u64 = func() (t [28]uint64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * 5
	}
	return t
}()

// pow10f64[k] = 10^k, exact in float64, for k up to 22.
var pow10f64 = func() (t [23]float64) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * 10
	}
	return t
}()

// digitPairs holds "00" through "99", so digits are written two at a
// time.
var digitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

// Number-grammar errors; the decoder reports them at the number's
// offset.
const (
	errNoNumber   = "expected a number"
	errNoFraction = "expected a digit after the decimal point"
	errNoExponent = "expected a digit in the exponent"
)

// scanNumber scans the JSON number at b[i:],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns the index
// after it. In the same pass it splits the number the way strconv does:
// value = ±man · 10^exp10, man holding the first 19 significant digits,
// trunc set if a later digit is not zero. On a grammar error msg names
// it and the other results are meaningless.
func scanNumber(b []byte, i int) (man uint64, exp10 int, neg, trunc bool, end int, msg string) {
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	nd := 0 // significant digits seen, leading zeros excluded
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
			} else if b[i] != '0' {
				trunc = true
			}
			nd++
		}
	default:
		return 0, 0, false, false, i, errNoNumber
	}
	dp := nd // position of the decimal point relative to the digits
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if nd == 0 {
			// Leading zeros only move the decimal point.
			for ; i < len(b) && b[i] == '0'; i++ {
				dp--
			}
		}
		// Eight digits per step while they fit in the 19.
		for ; nd <= 19-8 && i+8 <= len(b); i += 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(v) {
				break
			}
			man = man*1e8 + parseEightDigits(v)
			nd += 8
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
			} else if b[i] != '0' {
				trunc = true
			}
			nd++
		}
		if i == j {
			return 0, 0, false, false, i, errNoFraction
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		j := i
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			// Past 10000 the exponent only has to stay out of range.
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, 0, false, false, i, errNoExponent
		}
		dp += e * esign
	}
	if man != 0 {
		exp10 = dp - min(nd, 19)
	}
	return man, exp10, neg, trunc, i, ""
}

// eightDigits reports whether the eight bytes packed little-endian in v
// are all ASCII digits: each high nibble is 3 and adding 6 carries no
// byte past '9'.
func eightDigits(v uint64) bool {
	return v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 == 0x3333333333333333
}

// parseEightDigits returns the value of the eight ASCII digits packed
// little-endian in v, first digit in the low byte, combining digit
// pairs, then pairs of pairs, then the two halves with one multiply
// each.
func parseEightDigits(v uint64) uint64 {
	v = (v & 0x0F0F0F0F0F0F0F0F) * (1 + 10<<8) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (1 + 100<<16) >> 16
	return (v & 0x0000FFFF0000FFFF) * (1 + 10000<<32) >> 32
}

// toFloat64 returns the float64 nearest to the number tok that
// scanNumber split into (man, exp10, neg, trunc), and the error
// strconv.ParseFloat returns for it. Clinger's exact path and
// Eisel–Lemire settle nearly every input, and the exact dyadic path
// the fully written binary fractions Eisel–Lemire leaves open;
// strconv.ParseFloat handles the rest — truncated mantissas, exponents
// outside pow10Table, subnormal or overflowing results, and halfway
// cases Eisel–Lemire cannot decide — so its results and its error text
// are kept.
func toFloat64(tok []byte, man uint64, exp10 int, neg, trunc bool) (float64, error) {
	if !trunc {
		if f, ok := clinger(man, exp10, neg); ok {
			return f, nil
		}
		if f, ok := eiselLemire(man, exp10, neg); ok {
			return f, nil
		}
		if f, ok := dyadic(man, exp10, neg); ok {
			return f, nil
		}
	}
	return strconv.ParseFloat(string(tok), 64)
}

// dyadic converts ±man · 10^exp10 when it is exactly m · 2^exp10 with
// m = man / 5^-exp10 an integer below 2^53: every digit of a binary
// fraction written out, as encoding/json writes many float32 values.
// The exact result lies on a float64, where Eisel–Lemire's rounded-down
// power of ten leaves the rounding open.
func dyadic(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 >= 0 || exp10 < -27 {
		return 0, false
	}
	p := pow5u64[-exp10]
	m := man / p
	if m*p != man || m>>53 != 0 {
		return 0, false
	}
	f := float64(m) * math.Float64frombits(uint64(1023+exp10)<<52) // · 2^exp10, exact
	if neg {
		f = -f
	}
	return f, true
}

// clinger converts ±man · 10^exp10 exactly in float64 arithmetic when
// man and the power of ten are both exact and one correctly rounded
// operation combines them (strconv's atof64exact).
func clinger(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0 && exp10 <= 15+22:
		// A short mantissa can take some of a large power as zeros.
		if exp10 > 22 {
			f *= pow10f64[exp10-22]
			exp10 = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * pow10f64[exp10], true
	case exp10 < 0 && exp10 >= -22:
		return f / pow10f64[-exp10], true
	}
	return 0, false
}

// eiselLemire converts ±man · 10^exp10 with one (rarely two) 64×128-bit
// multiplications by pow10Table (Lemire, "Number Parsing at a Gigabyte
// per Second", 2021). It declines — ok false — where the product does
// not decide the rounding, and for subnormal and overflowing results.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]

	// Normalize man and multiply by the power's high word.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(man, pow[1])

	// If the low bits leave the rounding open, widen to the low word.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shift to 54 bits, refuse an undecidable halfway case, round to 53.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is unsigned: 0 or wrapped is subnormal, 0x7FF up is Inf.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest digits that read back as f (strconv.AppendFloat with
// precision -1), laid out in 'f' form, or in 'e' form when |f| < 1e-6
// or |f| >= 1e21, with a one-digit negative exponent unpadded (e-7, not
// e-07). The digits come from ryuShortest and go straight into b.
func appendFloat(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	exp := int(fb>>52) & 0x7FF
	mant := fb & (1<<52 - 1)
	if exp == 0 {
		if mant == 0 {
			return append(b, '0')
		}
		exp++ // subnormal
	} else {
		mant |= 1 << 52
	}
	dig, exp10 := ryuShortest(mant, exp-1023-52)
	for dig%10 == 0 && dig != 0 {
		dig /= 10
		exp10++
	}
	nd := decimalLen(dig)
	dp := nd + exp10 // digits before the decimal point

	// Reserve the longest layout: 'f' below 1e21 needs at most 21
	// digits before the point, and 0.00000 plus 17 after it.
	n := len(b)
	if cap(b)-n < 32 {
		b = append(b, make([]byte, 32)...)
	}
	b = b[:n+32]
	out := b[n:]

	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		// d.ddd…e±x: write the digits one place right, then pull the
		// first one in front of the point.
		putDigits(out[1:1+nd], dig)
		out[0] = out[1]
		w := 1
		if nd > 1 {
			out[1] = '.'
			w = nd + 1
		}
		out[w] = 'e'
		x := dp - 1
		if x < 0 {
			out[w+1] = '-'
			x = -x
		} else {
			out[w+1] = '+'
		}
		w += 2
		if x >= 100 {
			out[w] = byte('0' + x/100)
			x %= 100
			w++
			out[w], out[w+1] = digitPairs[2*x], digitPairs[2*x+1]
			w += 2
		} else if x >= 10 {
			out[w], out[w+1] = digitPairs[2*x], digitPairs[2*x+1]
			w += 2
		} else {
			out[w] = byte('0' + x)
			w++
		}
		return b[:n+w]
	}
	switch {
	case dp <= 0:
		// 0.000ddd
		out[0], out[1] = '0', '.'
		for i := range -dp {
			out[2+i] = '0'
		}
		w := 2 - dp + nd
		putDigits(out[2-dp:w], dig)
		return b[:n+w]
	case dp < nd:
		// ddd.ddd: write the digits one place right, then move the
		// integer part, a few digits, back over the gap.
		putDigits(out[1:1+nd], dig)
		for i := range dp {
			out[i] = out[i+1]
		}
		out[dp] = '.'
		return b[:n+nd+1]
	default:
		// ddd000
		putDigits(out[:nd], dig)
		for i := nd; i < dp; i++ {
			out[i] = '0'
		}
		return b[:n+dp]
	}
}

// decimalLen returns the number of decimal digits of v > 0.
func decimalLen(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12 // ≈ floor(log10(v)) + 1, or one less
	if v >= pow10u64[n] {
		n++
	}
	return n
}

// putDigits writes v into dst as exactly len(dst) decimal digits:
// eight at a time in 32-bit arithmetic, two per table lookup.
func putDigits(dst []byte, v uint64) {
	i := len(dst)
	for ; i >= 8; i -= 8 {
		x := uint32(v % 1e8)
		v /= 1e8
		hi, lo := x/1e4, x%1e4
		a, b, c, d := hi/100, hi%100, lo/100, lo%100
		o := dst[i-8 : i]
		o[0], o[1] = digitPairs[2*a], digitPairs[2*a+1]
		o[2], o[3] = digitPairs[2*b], digitPairs[2*b+1]
		o[4], o[5] = digitPairs[2*c], digitPairs[2*c+1]
		o[6], o[7] = digitPairs[2*d], digitPairs[2*d+1]
	}
	x := uint32(v)
	for ; i >= 2; i -= 2 {
		p := x % 100
		x /= 100
		dst[i-2], dst[i-1] = digitPairs[2*p], digitPairs[2*p+1]
	}
	if i == 1 {
		dst[0] = byte('0' + x)
	}
}

// ryuShortest returns the shortest decimal dig · 10^exp10 that reads
// back as mant · 2^exp (mant > 0, a float64's significand), the closest
// such when several are shortest: the digits of strconv's
// ryuFtoaShortest (Adams, "Ryū: Fast Float-to-String Conversion", PLDI
// 2018), returned as an integer instead of characters. dig may carry
// trailing zeros.
func ryuShortest(mant uint64, exp int) (dig uint64, exp10 int) {
	// An integer with fewer bits than the significand has no
	// admissible neighbours: its digits are its own.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		mant >>= uint(-exp)
		return ryuDigits(mant, mant, mant, true, false)
	}
	// The rounding interval (ml, mu) · 2^e2 around mc · 2^e2; it is
	// asymmetric at a power of two, except for the smallest exponent.
	ml, mc, mu, e2 := 2*mant-1, 2*mant, 2*mant+1, exp-1
	if mant == 1<<52 && exp > -1022-52 {
		ml, mc, mu, e2 = 4*mant-1, 4*mant, 4*mant+2, exp-2
	}
	if e2 == 0 {
		return ryuDigits(ml, mc, mu, true, false)
	}
	// Scale by 10^q, the power just above 2^-e2, in 128-bit arithmetic.
	q := (-e2*78913)>>18 + 1 // floor(-e2 · log10(2)) + 1
	dl, dc, du, dl0, dc0, du0 := mulPow10(mc, mu-mc, q)
	e2 += (q*108853)>>15 - 8 // floor(q · log2(10))
	if q > 55 {
		// Large positive powers of ten are not exact.
		dl0, dc0, du0 = false, false, false
	}
	if q < 0 && q >= -24 {
		// Division by a power of ten may be exact (5^25 has 59 bits).
		dl0 = dl0 || divisibleByPower5(ml, -q)
		dc0 = dc0 || divisibleByPower5(mc, -q)
		du0 = du0 || divisibleByPower5(mu, -q)
	}
	// Floor the scaled bounds to integers, keeping rounding hints.
	extra := uint(-e2)
	extraMask := uint64(1<<extra - 1)
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// du is admissible when truncated, or exact with an even mant.
	if du0 && fracu == 0 && mant&1 != 0 {
		du--
	}
	// dc may have to round up to dc+1.
	var cup bool
	if dc0 {
		cup = fracc > 1<<(extra-1) || (fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		cup = fracc>>(extra-1) == 1
	}
	// dl is admissible only when exact and mant is even.
	if !(dl0 && fracl == 0 && mant&1 == 0) {
		dl++
	}
	dig, exp10 = ryuDigits(dl, dc, du, dc0 && fracc == 0, cup)
	return dig, exp10 - q
}

// ryuDigits picks, between lower and upper, the number with the fewest
// significant digits nearest central (c0: central is exact; cup: it
// rounds up), returned as dig · 10^exp10. It works in 32-bit halves
// split at 10^9, as strconv does, so its choices match strconv's
// exactly.
func ryuDigits(lower, central, upper uint64, c0, cup bool) (dig uint64, exp10 int) {
	lhi, llo := uint32(lower/1e9), uint32(lower%1e9)
	chi, clo := uint32(central/1e9), uint32(central%1e9)
	uhi, ulo := uint32(upper/1e9), uint32(upper%1e9)
	switch {
	case uhi == 0:
		c, t := ryuDigits32(llo, clo, ulo, c0, cup)
		return uint64(c), t
	case lhi < uhi:
		// The bounds differ above 10^9: drop 9 digits at once.
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = clo > 5e8 || (clo == 5e8 && cup)
		c, t := ryuDigits32(lhi, chi, uhi, c0, cup)
		return uint64(c), t + 9
	}
	// The high halves agree: they are digits of the result.
	c, t := ryuDigits32(llo, clo, ulo, c0, cup)
	return uint64(chi)*pow10u64[9-t] + uint64(c), t
}

// ryuDigits32 drops trailing digits from central, below 10^9, while the
// bounds still admit a shorter number, then rounds: the result is
// c · 10^trimmed.
func ryuDigits32(lower, central, upper uint32, c0, cup bool) (c uint32, trimmed int) {
	if upper == 0 {
		return 0, 9
	}
	// cNextDigit is the last digit dropped; c0 then says whether all
	// digits after it are zero.
	var cNextDigit uint32
	for upper > 0 {
		// l = ceil(lower/10), c = round(central/10), u = floor(upper/10);
		// stop once c leaves (l, u).
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			break
		}
		// central just below a number ending in many zeros.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		c0 = c0 && cNextDigit == 0
		cNextDigit = cdigit
		lower, central, upper = l, c, u
	}
	if trimmed > 0 {
		cup = cNextDigit > 5 ||
			(cNextDigit == 5 && !c0) ||
			(cNextDigit == 5 && c0 && central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	return central, trimmed
}

// mulPow10 scales the rounding interval (mc-1, mc, mc+up) · 2^e2, mc
// at most 56 bits and up 1 or 2, by 10^q from pow10Table (rounded up
// for q < 0). It returns the top bits of the three products, typically
// 63 or 64 of them, as d · 2^(e2 + floor(q · log2(10)) - 8), and
// whether the bits dropped were all zero: strconv's mult128bitPow10 for
// each bound, with one 64×128-bit multiplication for the centre and the
// bounds a power of ten away from it.
func mulPow10(mc, up uint64, q int) (dl, dc, du uint64, dl0, dc0, du0 bool) {
	p := &pow10Table[q-pow10Min]
	lo, hi := p[0], p[1]
	if q < 0 {
		lo++
	}
	// x = mc · pow, 192 bits.
	l1, x0 := bits.Mul64(mc, lo)
	x2, h0 := bits.Mul64(mc, hi)
	x1, c := bits.Add64(l1, h0, 0)
	x2 += c
	// y = x - pow, z = x + up · pow.
	y0, b := bits.Sub64(x0, lo, 0)
	y1, b := bits.Sub64(x1, hi, b)
	y2 := x2 - b
	s := up - 1
	z0, c := bits.Add64(x0, lo<<s, 0)
	z1, c := bits.Add64(x1, hi<<s|lo>>(64-s), c)
	z2 := x2 + hi>>(64-s) + c
	return y2<<9 | y1>>55, x2<<9 | x1>>55, z2<<9 | z1>>55,
		y1<<9 == 0 && y0 == 0, x1<<9 == 0 && x0 == 0, z1<<9 == 0 && z0 == 0
}

func divisibleByPower5(m uint64, k int) bool {
	if m == 0 {
		return true
	}
	for range k {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

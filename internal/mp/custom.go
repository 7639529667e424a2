package mp

import "math"

// roundBinary rounds x to the nearest value of the binary floating-point
// format with eBits exponent bits and mBits mantissa bits
// (round-to-nearest-even), returning it as a float64. It is the one
// rounder behind every narrow format (F16 is (5,10), BF16 is (8,7), and
// custom(e,m) is itself): every format the ladder can name is a subset of
// float64 (e <= 11, m <= 52), so in the format's normal range rounding is
// integer arithmetic on the float64 bit pattern, with no double rounding.
// For e=11, m=52 the function is the float64 identity on every input.
func roundBinary(x float64, eBits, mBits int) float64 {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7FF
	if exp == 0x7FF || b<<1 == 0 { // NaN, ±Inf, ±0
		return x
	}
	bias := 1<<(eBits-1) - 1
	if exp-1023 < 1-bias {
		// Below the smallest normal (every float64 subnormal lands here):
		// fixed quantum of 2^(1-bias-m), and x/q is exact.
		q := math.Ldexp(1, 1-bias-mBits)
		return math.RoundToEven(x/q) * q
	}
	// Normal range: keep m of the 52 fraction bits. Adding half an ulp
	// less one, plus the kept lsb, carries exactly when the dropped bits
	// are above the midpoint or tie to an odd lsb; a carry out of the
	// fraction steps the exponent, which is the correctly rounded value.
	if s := uint(52 - mBits); s > 0 {
		b += 1<<(s-1) - 1 + (b>>s)&1
		b &^= 1<<s - 1
	}
	if int(b>>52&0x7FF)-1023 > bias {
		// Past the largest finite value: everything at or beyond the
		// midpoint (2 - 2^-(m+1)) * 2^bias rounds to infinity.
		return math.Float64frombits(b&(1<<63) | 0x7FF<<52)
	}
	return math.Float64frombits(b)
}

package mp

import "math"

// Half-precision support. The paper's study restricts itself to double and
// single precision (the levels Typeforge can refactor between), but its
// search-space framing is p^loc with p=3 on accelerators that add IEEE-754
// binary16, and it lists half precision as the obvious extension. The
// runtime supports it so extension studies (see examples/halfprecision)
// can explore three-level configurations; the paper-table regenerations
// never assign it.

// Half-precision limits used by the bit codecs. Rounding to binary16 is
// F16.Round, the generic roundBinary at (5,10).
const (
	// halfMinNormal is the smallest normal binary16 value, 2^-14.
	halfMinNormal = 6.103515625e-05
	// halfSubQuantum is the subnormal quantum, 2^-24.
	halfSubQuantum = 5.960464477539063e-08
)

// halfBits encodes a half-rounded value as its IEEE-754 binary16 bit
// pattern (used by the mixed-precision file IO).
func halfBits(x float64) uint16 {
	var sign uint16
	if math.Signbit(x) {
		sign = 0x8000
	}
	switch {
	case x != x:
		return sign | 0x7E00 // quiet NaN
	case math.IsInf(x, 0):
		return sign | 0x7C00
	case x == 0:
		return sign
	}
	ax := math.Abs(x)
	if ax < halfMinNormal {
		// Subnormal: magnitude is a multiple of the quantum.
		return sign | uint16(math.Round(ax/halfSubQuantum))
	}
	f, e := math.Frexp(ax) // ax = f * 2^e, f in [0.5, 1)
	// binary16 exponent field for value 1.m * 2^(e-1) is (e-1)+15.
	exp := uint16(e-1+15) << 10
	mant := uint16(math.Round((2*f - 1) * (1 << 10)))
	return sign | exp | mant
}

// halfFromBits decodes an IEEE-754 binary16 bit pattern.
func halfFromBits(b uint16) float64 {
	sign := 1.0
	if b&0x8000 != 0 {
		sign = -1
	}
	exp := int(b>>10) & 0x1F
	mant := float64(b & 0x3FF)
	switch exp {
	case 0:
		return sign * mant * halfSubQuantum
	case 0x1F:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * math.Ldexp(1+mant/(1<<10), exp-15)
	}
}

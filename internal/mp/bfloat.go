package mp

import "math"

// bfloat16 support: the truncated-significand single-precision format of
// ML accelerators (1 sign, 8 exponent, 7 mantissa bits). Its exponent
// field matches binary32 exactly, so every bfloat16 value - normals,
// subnormals, infinities - is the float32 value whose low 16 mantissa
// bits are zero; the bit codecs below lean on that. Rounding must still
// happen directly from float64 (a float64 -> float32 -> bfloat16 trip
// would double-round), so BF16.Round is the generic roundBinary at (8,7).

// bfloatBits encodes a bfloat16-rounded value as its bit pattern (used by
// the mixed-precision file IO). A rounded value is exactly representable
// in float32 with zero low mantissa bits, so the encoding is the top half
// of the float32 pattern.
func bfloatBits(x float64) uint16 {
	if x != x {
		return 0x7FC0 // canonical quiet NaN
	}
	return uint16(math.Float32bits(float32(x)) >> 16)
}

// bfloatFromBits decodes a bfloat16 bit pattern.
func bfloatFromBits(b uint16) float64 {
	return float64(math.Float32frombits(uint32(b) << 16))
}

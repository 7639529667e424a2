package mp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCustomValidation(t *testing.T) {
	for _, c := range []struct {
		e, m int
		ok   bool
	}{
		{5, 10, true}, {8, 7, true}, {11, 52, true}, {2, 1, true},
		{8, 23, true}, {8, 40, true},
		{1, 10, false}, {12, 10, false}, {5, 0, false}, {5, 53, false},
	} {
		p, err := Custom(c.e, c.m)
		if c.ok != (err == nil) {
			t.Errorf("Custom(%d,%d) err = %v, want ok=%v", c.e, c.m, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		if !p.IsCustom() || p.ExpBits() != c.e || p.MantBits() != c.m {
			t.Errorf("Custom(%d,%d) widths = (%d,%d)", c.e, c.m, p.ExpBits(), p.MantBits())
		}
	}
}

func TestCustomSizes(t *testing.T) {
	for _, c := range []struct {
		e, m int
		size uint64
	}{
		{5, 10, 2},  // 16 bits: binary16 shape
		{4, 10, 2},  // 15 bits fits a 2-byte container
		{8, 7, 2},   // bfloat16 shape
		{8, 23, 4},  // binary32 shape
		{8, 8, 4},   // 17 bits spills to 4 bytes
		{11, 52, 8}, // binary64 shape
		{8, 40, 8},  // 49 bits needs 8 bytes
	} {
		if got := MustCustom(c.e, c.m).Size(); got != c.size {
			t.Errorf("custom(%d,%d).Size() = %d, want %d", c.e, c.m, got, c.size)
		}
	}
}

// refRoundBinary is the Frexp/Ldexp rounder that roundBinary replaced,
// kept as the differential reference: it rounds the significand in
// float64 arithmetic instead of on the bit pattern.
func refRoundBinary(x float64, eBits, mBits int) float64 {
	if x != x || math.IsInf(x, 0) || x == 0 {
		return x
	}
	bias := 1<<(eBits-1) - 1
	// Values at or beyond the midpoint between the largest finite value,
	// (2 - 2^-m) * 2^bias, and the next representable step round to
	// infinity. For the full float64 widths this midpoint overflows to
	// +Inf and the comparison is never true, as it must be.
	overflow := math.Ldexp(2-math.Ldexp(1, -(mBits+1)), bias)
	ax := math.Abs(x)
	if ax >= overflow {
		return math.Inf(int(math.Copysign(1, x)))
	}
	minNormal := math.Ldexp(1, 1-bias)
	if ax < minNormal {
		// Subnormal range: fixed quantum of 2^(1-bias-m).
		q := math.Ldexp(1, 1-bias-mBits)
		return math.RoundToEven(x/q) * q
	}
	// Normal range: m+1 significant bits.
	f, e := math.Frexp(x) // x = f * 2^e with |f| in [0.5, 1)
	s := math.Ldexp(1, mBits+1)
	m := math.RoundToEven(f*s) / s
	y := math.Ldexp(m, e)
	if math.Abs(y) >= overflow {
		// Rounding carried the significand past the largest finite value.
		return math.Inf(int(math.Copysign(1, x)))
	}
	return y
}

// roundBinaryProbes returns the inputs where a rounder for format (e, m)
// can go wrong: the overflow midpoint, 2^(bias+1), the largest finite
// value, the smallest normal, the subnormal quantum, and ties of both
// parities in the normal and subnormal ranges, each with its float64
// neighbours on both sides, in both signs.
func roundBinaryProbes(e, m int) []float64 {
	bias := 1<<(e-1) - 1
	ulp := math.Ldexp(1, -m) // at 1
	minNormal, quantum := math.Ldexp(1, 1-bias), math.Ldexp(1, 1-bias-m)
	var xs []float64
	for _, v := range []float64{
		math.Ldexp(2-ulp/2, bias), // overflow midpoint (ties up: maxFinite is odd)
		math.Ldexp(1, bias+1),
		math.Ldexp(2-ulp, bias), // largest finite
		minNormal,
		quantum,
		1 + ulp/2,              // tie, even neighbour below: rounds down
		1 + 3*ulp/2,            // tie, odd neighbour below: rounds up
		minNormal - quantum/2,  // tie from the subnormal top into minNormal
		quantum / 2,            // tie between zero and the quantum
		3 * quantum / 2,        // subnormal tie, odd neighbour below
		math.Ldexp(1+ulp/2, 1), // tie at another binade
	} {
		for _, y := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			xs = append(xs, y, -y)
		}
	}
	return xs
}

// randomProbe returns a random float64 near format (e, m): a random bit
// pattern (one in four), an exact tie at a random exponent (one in
// four), or a random significand at an exponent from just below the
// subnormal range to just past overflow.
func randomProbe(rng *rand.Rand, e, m int) float64 {
	b := rng.Uint64()
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(b)
	case 1:
		if m < 52 { // the dropped bits become exactly 100...0
			s := uint(52 - m)
			b = b&^(1<<s-1) | 1<<(s-1)
		}
	}
	bias := 1<<(e-1) - 1
	lo, hi := 1023-bias-m-2, 1023+bias+2
	exp := uint64(max(0, min(2046, lo+rng.Intn(hi-lo+1))))
	return math.Float64frombits(b&^(0x7FF<<52) | exp<<52)
}

// The bit-level rounder must return the reference's exact bits on every
// format a ladder can name, at every boundary and on random inputs.
func TestRoundBinaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for e := 2; e <= 11; e++ {
		for m := 1; m <= 52; m++ {
			xs := roundBinaryProbes(e, m)
			xs = append(xs, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
				math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64)
			for range 300 {
				xs = append(xs, randomProbe(rng, e, m))
			}
			for _, x := range xs {
				got, want := roundBinary(x, e, m), refRoundBinary(x, e, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("roundBinary(%v [%#016x], %d, %d) = %v [%#016x], reference %v [%#016x]",
						x, math.Float64bits(x), e, m, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// FuzzRoundBinary checks the bit-level rounder against the reference on
// arbitrary inputs; e and m map onto the legal widths 2..11 and 1..52.
func FuzzRoundBinary(f *testing.F) {
	f.Add(1.0+math.Ldexp(1, -11), uint8(3), uint8(9)) // binary16 tie
	f.Add(65520.0, uint8(3), uint8(9))                // binary16 overflow midpoint
	f.Add(math.Ldexp(1, -134), uint8(6), uint8(6))    // bfloat16 subnormal tie
	f.Add(math.MaxFloat64, uint8(9), uint8(50))       // custom(11,51) carry to Inf
	f.Fuzz(func(t *testing.T, x float64, e, m uint8) {
		eBits, mBits := 2+int(e)%10, 1+int(m)%52
		got, want := roundBinary(x, eBits, mBits), refRoundBinary(x, eBits, mBits)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("roundBinary(%v [%#016x], %d, %d) = %v [%#016x], reference %v [%#016x]",
				x, math.Float64bits(x), eBits, mBits, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// The generic rounder must agree exactly with the hand-written format
// rounders when parameterized to the same widths, and be the identity at
// full float64 width.
func TestRoundBinaryMatchesHalf(t *testing.T) {
	f := func(x float64) bool {
		a, b := roundBinary(x, 5, 10), roundToHalf(x)
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return a == b || (math.IsInf(a, 0) && a == b)
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
	// The quick generator rarely lands in half's narrow dynamic range, so
	// sweep every binary16 value and its neighbourhood explicitly.
	for b := 0; b < 1<<16; b++ {
		v := halfFromBits(uint16(b))
		if math.IsNaN(v) {
			continue
		}
		for _, x := range []float64{v, math.Nextafter(v, math.Inf(1)), v * 1.0001} {
			a, h := roundBinary(x, 5, 10), roundToHalf(x)
			if a != h && !(math.IsInf(a, 0) && a == h) {
				t.Fatalf("roundBinary(%v,5,10) = %v, roundToHalf = %v", x, a, h)
			}
		}
	}
}

func TestRoundBinaryIdentityAtFullWidth(t *testing.T) {
	f := func(x float64) bool {
		y := roundBinary(x, 11, 52)
		if math.IsNaN(x) {
			return math.IsNaN(y)
		}
		return y == x
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestCustomMatchesBuiltins(t *testing.T) {
	pairs := []struct {
		custom  Prec
		builtin Prec
	}{
		{MustCustom(5, 10), F16},
		{MustCustom(8, 7), BF16},
		{MustCustom(8, 23), F32},
		{MustCustom(11, 52), F64},
	}
	for _, pr := range pairs {
		f := func(x float64) bool {
			a, b := pr.custom.Round(x), pr.builtin.Round(x)
			if math.IsNaN(a) || math.IsNaN(b) {
				return math.IsNaN(a) && math.IsNaN(b)
			}
			return a == b
		}
		if err := quick.Check(f, quickConfig()); err != nil {
			t.Errorf("custom(%d,%d) vs %s: %v", pr.custom.ExpBits(), pr.custom.MantBits(), pr.builtin, err)
		}
	}
}

// ladderFormats is the menu the property tests sweep: every built-in plus
// custom formats at the container boundaries.
func ladderFormats() []Prec {
	return []Prec{
		F64, F32, F16, BF16,
		MustCustom(5, 10), MustCustom(8, 7), MustCustom(11, 52),
		MustCustom(3, 2), MustCustom(8, 40), MustCustom(8, 23),
	}
}

func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 2000}
}

// Round must be idempotent for every format a ladder can name: rounding a
// rounded value is the identity.
func TestRoundIdempotentAllFormats(t *testing.T) {
	for _, p := range ladderFormats() {
		f := func(x float64) bool {
			once := p.Round(x)
			twice := p.Round(once)
			if math.IsNaN(once) {
				return math.IsNaN(twice)
			}
			return once == twice
		}
		if err := quick.Check(f, quickConfig()); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// Round must be monotone for every format: a <= b implies
// Round(a) <= Round(b), the property that makes narrowing order-safe.
func TestRoundMonotoneAllFormats(t *testing.T) {
	for _, p := range ladderFormats() {
		f := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			if a > b {
				a, b = b, a
			}
			return p.Round(a) <= p.Round(b)
		}
		if err := quick.Check(f, quickConfig()); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// Specials survive every format: NaN stays NaN, infinities and signed
// zero pass through.
func TestRoundSpecialsAllFormats(t *testing.T) {
	for _, p := range ladderFormats() {
		if !math.IsNaN(p.Round(math.NaN())) {
			t.Errorf("%s: NaN not preserved", p.Name())
		}
		if !math.IsInf(p.Round(math.Inf(1)), 1) || !math.IsInf(p.Round(math.Inf(-1)), -1) {
			t.Errorf("%s: infinities not preserved", p.Name())
		}
		nz := p.Round(math.Copysign(0, -1))
		if nz != 0 || !math.Signbit(nz) {
			t.Errorf("%s: negative zero not preserved", p.Name())
		}
	}
}

func TestCustomIO(t *testing.T) {
	// Custom formats serialize as rounded float64 payloads (8-byte
	// stride): no interchange encoding exists for an (e,m) format, but
	// the round trip must still be value-exact.
	p := MustCustom(6, 9)
	vals := []float64{0, 1, -1.5, 0.1, 1e-12, 12345.678}
	var buf bytes.Buffer
	if err := WriteValues(&buf, p, vals); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(vals)*8 {
		t.Fatalf("wrote %d bytes, want 8-byte stride", buf.Len())
	}
	back, err := ReadValues(&buf, p, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if want := p.Round(v); back[i] != want {
			t.Errorf("[%d] = %v, want %v", i, back[i], want)
		}
	}
}

func TestWiderPrec(t *testing.T) {
	cases := []struct {
		a, b Prec
		want bool
	}{
		{F64, F32, true}, {F32, F64, false},
		{F32, F16, true}, {F32, BF16, true},
		{F16, BF16, true}, {BF16, F16, false}, // mantissa bits decide
		{F64, F64, false},
		{MustCustom(11, 52), F32, true},
		{F32, MustCustom(8, 23), false}, // same widths: not strictly wider
		{MustCustom(8, 23), F32, false},
		{MustCustom(5, 10), MustCustom(8, 7), true},
		{MustCustom(8, 7), MustCustom(5, 7), true}, // mantissa tie: exponent decides
	}
	for _, c := range cases {
		if got := widerPrec(c.a, c.b); got != c.want {
			t.Errorf("widerPrec(%s, %s) = %v, want %v", c.a.Name(), c.b.Name(), got, c.want)
		}
	}
}

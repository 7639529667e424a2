package mp

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// halfOverflow is the binary16 rounding boundary to infinity: values with
// magnitude >= 65520 round away from the largest finite half, 65504.
const halfOverflow = 65520

// roundToHalf is the hand-written binary16 rounder F16.Round replaced,
// kept as an independent reference for roundBinary at (5,10). The
// arithmetic runs entirely in float64, whose 53-bit significand
// represents every intermediate exactly, so no double rounding occurs.
func roundToHalf(x float64) float64 {
	if x != x || math.IsInf(x, 0) || x == 0 {
		return x
	}
	ax := math.Abs(x)
	if ax >= halfOverflow {
		return math.Inf(int(math.Copysign(1, x)))
	}
	if ax < halfMinNormal {
		// Subnormal range: fixed quantum of 2^-24.
		return math.RoundToEven(x/halfSubQuantum) * halfSubQuantum
	}
	// Normal range: 11 significant bits.
	f, e := math.Frexp(x) // x = f * 2^e with |f| in [0.5, 1)
	m := math.RoundToEven(f*(1<<11)) / (1 << 11)
	y := math.Ldexp(m, e)
	if math.Abs(y) >= halfOverflow {
		// Rounding carried the significand past the largest finite half.
		return math.Inf(int(math.Copysign(1, x)))
	}
	return y
}

func TestHalfKnownValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{-2, -2},
		{0.5, 0.5},
		{65504, 65504},       // largest finite half
		{65519.999, 65504},   // just below the overflow boundary
		{65520, math.Inf(1)}, // boundary ties away to infinity
		{-65520, math.Inf(-1)},
		{1e10, math.Inf(1)},
		{6.103515625e-05, 6.103515625e-05}, // smallest normal
		{5.960464477539063e-08, 5.960464477539063e-08}, // smallest subnormal
		{3.1e-08, 5.960464477539063e-08},               // rounds up to min subnormal
		{2.9802322387695312e-08, 0},                    // exact tie at quantum/2: even -> 0
		{1e-12, 0},                                     // flushes to zero
		{1.0 / 3.0, 0.333251953125},                    // 1/3 in binary16
		{0.1, 0.0999755859375},                         // 0.1 in binary16
		{2049, 2048},                                   // 11-bit significand: ties to even
		{2051, 2052},
	}
	for _, c := range cases {
		got := F16.Round(c.in)
		if math.IsInf(c.want, 0) {
			if !math.IsInf(got, int(math.Copysign(1, c.want))) {
				t.Errorf("F16.Round(%g) = %g, want %g", c.in, got, c.want)
			}
			continue
		}
		if got != c.want {
			t.Errorf("F16.Round(%g) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHalfSpecials(t *testing.T) {
	if !math.IsNaN(F16.Round(math.NaN())) {
		t.Error("NaN not preserved")
	}
	if !math.IsInf(F16.Round(math.Inf(1)), 1) || !math.IsInf(F16.Round(math.Inf(-1)), -1) {
		t.Error("infinities not preserved")
	}
	negZero := F16.Round(math.Copysign(0, -1))
	if negZero != 0 || !math.Signbit(negZero) {
		t.Error("negative zero not preserved")
	}
}

func TestHalfIdempotent(t *testing.T) {
	f := func(x float64) bool {
		once := F16.Round(x)
		twice := F16.Round(once)
		if math.IsNaN(once) {
			return math.IsNaN(twice)
		}
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHalfMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return F16.Round(a) <= F16.Round(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHalfBitsRoundTrip(t *testing.T) {
	// Every one of the 65536 bit patterns must decode and re-encode
	// identically (NaN payloads collapse to the canonical quiet NaN).
	for b := 0; b < 1<<16; b++ {
		bits := uint16(b)
		v := halfFromBits(bits)
		back := halfBits(v)
		if math.IsNaN(v) {
			if back&0x7C00 != 0x7C00 || back&0x3FF == 0 {
				t.Fatalf("bits %#04x: NaN re-encoded as %#04x", bits, back)
			}
			continue
		}
		if back != bits {
			t.Fatalf("bits %#04x -> %v -> %#04x", bits, v, back)
		}
	}
}

func TestHalfValuesAreFixedPoints(t *testing.T) {
	// Every decodable half value must round to itself.
	for b := 0; b < 1<<16; b++ {
		v := halfFromBits(uint16(b))
		if math.IsNaN(v) {
			continue
		}
		if got := F16.Round(v); got != v {
			t.Fatalf("half value %v (bits %#04x) rounds to %v", v, b, got)
		}
	}
}

func TestHalfRoundNearest(t *testing.T) {
	// Exhaustive nearest-value check against the midpoints of consecutive
	// positive finite half values.
	prev := 0.0
	for b := 1; b < 0x7C00; b++ {
		v := halfFromBits(uint16(b))
		mid := (prev + v) / 2
		lo, hi := F16.Round(math.Nextafter(mid, 0)), F16.Round(math.Nextafter(mid, v))
		if lo != prev {
			t.Fatalf("below midpoint of (%v, %v): got %v", prev, v, lo)
		}
		if hi != v {
			t.Fatalf("above midpoint of (%v, %v): got %v", prev, v, hi)
		}
		// The exact midpoint ties to the even significand.
		tie := F16.Round(mid)
		if tie != prev && tie != v {
			t.Fatalf("midpoint of (%v, %v) rounded to %v", prev, v, tie)
		}
		if halfBits(tie)&1 != 0 {
			t.Fatalf("midpoint of (%v, %v) tied to odd significand %v", prev, v, tie)
		}
		prev = v
	}
}

func TestPrecF16Basics(t *testing.T) {
	if F16.Size() != 2 {
		t.Errorf("F16.Size() = %d", F16.Size())
	}
	if F16.String() != "half" {
		t.Errorf("F16.String() = %q", F16.String())
	}
	if got := F16.Round(1.0 / 3.0); got != 0.333251953125 {
		t.Errorf("F16.Round(1/3) = %v", got)
	}
}

func TestHalfIO(t *testing.T) {
	vals := []float64{0, 1, -1.5, 0.1, 65504, 70000, 1e-9}
	var buf bytes.Buffer
	if err := WriteValues(&buf, F16, vals); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(vals)*2 {
		t.Fatalf("wrote %d bytes", buf.Len())
	}
	back, err := ReadValues(&buf, F16, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := F16.Round(v)
		if math.IsInf(want, 0) {
			if !math.IsInf(back[i], 1) {
				t.Errorf("[%d] = %v, want +Inf", i, back[i])
			}
			continue
		}
		if back[i] != want {
			t.Errorf("[%d] = %v, want %v", i, back[i], want)
		}
	}
}

func TestTapeWithHalfPrecision(t *testing.T) {
	tape := NewTape(2)
	tape.SetPrec(0, F16)
	a := tape.NewArray(0, 4)
	a.Set(0, 1.0/3.0)
	if got := a.Get(0); got != 0.333251953125 {
		t.Errorf("half array element = %v", got)
	}
	c := tape.Cost()
	if c.Footprint16 != 8 { // 4 elements x 2 bytes
		t.Errorf("Footprint16 = %d", c.Footprint16)
	}
	if c.Bytes16 != 4 { // one set + one get, 2 bytes each
		t.Errorf("Bytes16 = %d", c.Bytes16)
	}
	tape.AddFlops(F16, 5)
	if tape.Cost().Flops16 != 5 {
		t.Errorf("Flops16 = %d", tape.Cost().Flops16)
	}
	// Mixed half/double expression runs at double and costs a cast.
	tape.Assign(0, 1, 2, 1)
	c = tape.Cost()
	if c.Flops64 != 2 || c.Casts != 1 {
		t.Errorf("mixed expr cost = %+v", c)
	}
	// Half/half expression runs at half.
	tape.SetPrec(1, F16)
	tape.Assign(0, 1, 3, 1)
	if got := tape.Cost().Flops16; got != 8 {
		t.Errorf("Flops16 = %d, want 8", got)
	}
}

// BenchmarkRoundToHalf times the bare bit-level rounder at binary16
// widths; BenchmarkRoundF16 adds the Prec.Round dispatch.
func BenchmarkRoundToHalf(b *testing.B) {
	x := 0.1
	for i := 0; i < b.N; i++ {
		x = roundBinary(x, 5, 10) + 1e-3
	}
	sinkFloat = x
}

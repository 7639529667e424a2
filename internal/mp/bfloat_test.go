package mp

import (
	"bytes"
	"math"
	"testing"
)

// bfloat16 limits.
const (
	// bfloatMaxFinite is the largest finite bfloat16 value, (2-2^-7)*2^127.
	bfloatMaxFinite = 3.3895313892515355e+38
	// bfloatMinNormal is the smallest normal bfloat16 value, 2^-126.
	bfloatMinNormal = 1.1754943508222875e-38
	// bfloatSubQuantum is the subnormal quantum, 2^-133.
	bfloatSubQuantum = 9.183549615799121e-41
)

func TestBfloatKnownValues(t *testing.T) {
	overflow := math.Ldexp(2-math.Ldexp(1, -8), 127) // midpoint beyond maxFinite
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{-2, -2},
		{0.5, 0.5},
		{bfloatMaxFinite, bfloatMaxFinite}, // largest finite bfloat16
		{math.Nextafter(overflow, 0), bfloatMaxFinite}, // just below the overflow boundary
		{overflow, math.Inf(1)},                        // boundary ties away to infinity
		{-overflow, math.Inf(-1)},
		{1e39, math.Inf(1)},
		{bfloatMinNormal, bfloatMinNormal},   // smallest normal, 2^-126
		{bfloatSubQuantum, bfloatSubQuantum}, // smallest subnormal, 2^-133
		{5e-41, bfloatSubQuantum},            // rounds up to min subnormal
		{bfloatSubQuantum / 2, 0},            // exact tie at quantum/2: even -> 0
		{1e-45, 0},                           // flushes to zero
		{1.0 / 3.0, 0.333984375},             // 1/3 in bfloat16
		{0.1, 0.10009765625},                 // 0.1 in bfloat16
		{257, 256},                           // 8-bit significand: ties to even
		{259, 260},
		// The format's reason to exist: range survives where binary16
		// overflows (1e10 is Inf in f16, finite here).
		{1e10, 9999220736},
	}
	for _, c := range cases {
		got := BF16.Round(c.in)
		if math.IsInf(c.want, 0) {
			if !math.IsInf(got, int(math.Copysign(1, c.want))) {
				t.Errorf("BF16.Round(%g) = %g, want %g", c.in, got, c.want)
			}
			continue
		}
		if got != c.want {
			t.Errorf("BF16.Round(%g) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBfloatSpecials(t *testing.T) {
	if !math.IsNaN(BF16.Round(math.NaN())) {
		t.Error("NaN not preserved")
	}
	if !math.IsInf(BF16.Round(math.Inf(1)), 1) || !math.IsInf(BF16.Round(math.Inf(-1)), -1) {
		t.Error("infinities not preserved")
	}
	negZero := BF16.Round(math.Copysign(0, -1))
	if negZero != 0 || !math.Signbit(negZero) {
		t.Error("negative zero not preserved")
	}
}

func TestBfloatBitsRoundTrip(t *testing.T) {
	// Every one of the 65536 bit patterns must decode and re-encode
	// identically (NaN payloads collapse to the canonical quiet NaN).
	for b := 0; b < 1<<16; b++ {
		bits := uint16(b)
		v := bfloatFromBits(bits)
		back := bfloatBits(v)
		if math.IsNaN(v) {
			if back&0x7F80 != 0x7F80 || back&0x7F == 0 {
				t.Fatalf("bits %#04x: NaN re-encoded as %#04x", bits, back)
			}
			continue
		}
		if back != bits {
			t.Fatalf("bits %#04x -> %v -> %#04x", bits, v, back)
		}
	}
}

func TestBfloatValuesAreFixedPoints(t *testing.T) {
	// Every decodable bfloat16 value must round to itself.
	for b := 0; b < 1<<16; b++ {
		v := bfloatFromBits(uint16(b))
		if math.IsNaN(v) {
			continue
		}
		if got := BF16.Round(v); got != v {
			t.Fatalf("bfloat16 value %v (bits %#04x) rounds to %v", v, b, got)
		}
	}
}

func TestBfloatRoundNearest(t *testing.T) {
	// Exhaustive nearest-value check against the midpoints of consecutive
	// positive finite bfloat16 values.
	prev := 0.0
	for b := 1; b < 0x7F80; b++ {
		v := bfloatFromBits(uint16(b))
		mid := (prev + v) / 2
		lo, hi := BF16.Round(math.Nextafter(mid, 0)), BF16.Round(math.Nextafter(mid, v))
		if lo != prev {
			t.Fatalf("below midpoint of (%v, %v): got %v", prev, v, lo)
		}
		if hi != v {
			t.Fatalf("above midpoint of (%v, %v): got %v", prev, v, hi)
		}
		// The exact midpoint ties to the even significand.
		tie := BF16.Round(mid)
		if tie != prev && tie != v {
			t.Fatalf("midpoint of (%v, %v) rounded to %v", prev, v, tie)
		}
		if bfloatBits(tie)&1 != 0 {
			t.Fatalf("midpoint of (%v, %v) tied to odd significand %v", prev, v, tie)
		}
		prev = v
	}
}

func TestPrecBF16Basics(t *testing.T) {
	if BF16.Size() != 2 {
		t.Errorf("BF16.Size() = %d", BF16.Size())
	}
	if BF16.String() != "bfloat16" {
		t.Errorf("BF16.String() = %q", BF16.String())
	}
	if BF16.Name() != "bf16" {
		t.Errorf("BF16.Name() = %q", BF16.Name())
	}
	if BF16.ExpBits() != 8 || BF16.MantBits() != 7 {
		t.Errorf("BF16 widths = (%d, %d)", BF16.ExpBits(), BF16.MantBits())
	}
	if got := BF16.Round(1.0 / 3.0); got != 0.333984375 {
		t.Errorf("BF16.Round(1/3) = %v", got)
	}
	// bf16 keeps less precision than f16 but more range: widerPrec orders
	// it below F16, and a huge value stays finite.
	if !widerPrec(F16, BF16) {
		t.Error("F16 should be wider (more mantissa bits) than BF16")
	}
	if math.IsInf(BF16.Round(1e10), 0) || !math.IsInf(F16.Round(1e10), 0) {
		t.Error("range ordering of BF16 vs F16 violated at 1e10")
	}
}

func TestBfloatIO(t *testing.T) {
	vals := []float64{0, 1, -1.5, 0.1, bfloatMaxFinite, 1e39, 1e-43}
	var buf bytes.Buffer
	if err := WriteValues(&buf, BF16, vals); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(vals)*2 {
		t.Fatalf("wrote %d bytes", buf.Len())
	}
	back, err := ReadValues(&buf, BF16, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := BF16.Round(v)
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

func TestTapeWithBfloatPrecision(t *testing.T) {
	tape := NewTape(2)
	tape.SetPrec(0, BF16)
	a := tape.NewArray(0, 4)
	a.Set(0, 1.0/3.0)
	if got := a.Get(0); got != 0.333984375 {
		t.Errorf("bfloat array element = %v", got)
	}
	c := tape.Cost()
	if c.Footprint16 != 8 { // 4 elements x 2 bytes: bf16 meters in the 2-byte class
		t.Errorf("Footprint16 = %d", c.Footprint16)
	}
	if c.Bytes16 != 4 { // one set + one get, 2 bytes each
		t.Errorf("Bytes16 = %d", c.Bytes16)
	}
	// Mixed bf16/double expression runs at double and costs a cast.
	tape.Assign(0, 1, 2, 1)
	c = tape.Cost()
	if c.Flops64 != 2 || c.Casts != 1 {
		t.Errorf("mixed expr cost = %+v", c)
	}
	// bf16/bf16 expression runs in the 2-byte class.
	tape.SetPrec(1, BF16)
	tape.Assign(0, 1, 3, 1)
	if got := tape.Cost().Flops16; got != 3 {
		t.Errorf("Flops16 = %d, want 3", got)
	}
}

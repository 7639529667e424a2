package mp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestBulkAccessorsEquivalent checks the defining property of GetN, SetN,
// and SetEach: each is byte-for-byte equivalent - values, cost counters,
// and per-variable profile - to the element-wise loop it replaces, at
// every precision.
func TestBulkAccessorsEquivalent(t *testing.T) {
	for _, p := range []Prec{F64, F32, F16} {
		vals := make([]float64, 64)
		rng := rand.New(rand.NewSource(7))
		for i := range vals {
			vals[i] = rng.NormFloat64() * 1e3
		}

		loop := NewTape(2)
		loop.SetPrec(0, p)
		loop.SetScale(10)
		bulk := NewTape(2)
		bulk.SetPrec(0, p)
		bulk.SetScale(10)

		la := loop.NewArray(0, len(vals))
		ba := bulk.NewArray(0, len(vals))

		for i, x := range vals {
			la.Set(i, x)
		}
		ba.SetN(0, vals)

		for i := range vals {
			la.Set(i, vals[la.Len()-1-i])
		}
		ba.SetEach(func(i int) float64 { return vals[ba.Len()-1-i] })

		gotLoop := make([]float64, len(vals))
		for i := range gotLoop {
			gotLoop[i] = la.Get(i)
		}
		gotBulk := make([]float64, len(vals))
		ba.GetN(0, gotBulk)

		if !reflect.DeepEqual(gotLoop, gotBulk) {
			t.Fatalf("%v: bulk values diverge from the element-wise loop", p)
		}
		if loop.Cost() != bulk.Cost() {
			t.Fatalf("%v: cost diverges:\nloop %+v\nbulk %+v", p, loop.Cost(), bulk.Cost())
		}
		if !reflect.DeepEqual(loop.Profile(), bulk.Profile()) {
			t.Fatalf("%v: per-variable profile diverges", p)
		}
	}
}

// TestChargeFactorsRefresh checks that the precomputed charge factors
// follow every path that can change them: SetPrec, SetScale, and
// SetComputeOnly must each redirect subsequent traffic to the right
// counter at the right magnitude.
func TestChargeFactorsRefresh(t *testing.T) {
	tape := NewTape(1)
	a := tape.NewArray(0, 4)

	a.Set(0, 1) // double, scale 1: 8 bytes
	if c := tape.Cost(); c.Bytes64 != 8 || c.Bytes32 != 0 {
		t.Fatalf("double store: %+v", c)
	}

	tape.SetPrec(0, F32)
	a.Set(1, 1) // single: 4 bytes
	if c := tape.Cost(); c.Bytes32 != 4 {
		t.Fatalf("after SetPrec(F32): %+v", c)
	}

	tape.SetScale(100)
	a.Set(2, 1) // single at scale 100: 400 bytes
	if c := tape.Cost(); c.Bytes32 != 404 {
		t.Fatalf("after SetScale(100): %+v", c)
	}

	tape.SetComputeOnly(true)
	a.Set(3, 1) // IR semantics: storage stays double, 800 bytes
	if c := tape.Cost(); c.Bytes64 != 808 || c.Bytes32 != 404 {
		t.Fatalf("after SetComputeOnly: %+v", c)
	}

	tape.SetComputeOnly(false)
	tape.SetPrec(0, F16)
	a.Set(0, 1) // half at scale 100: 200 bytes
	if c := tape.Cost(); c.Bytes16 != 200 {
		t.Fatalf("after SetPrec(F16): %+v", c)
	}
}

// TestRoundFastPath checks that the split Round keeps its semantics: F64
// is the exact identity (including NaN and infinities), and the narrowing
// precisions match their reference conversions.
func TestRoundFastPath(t *testing.T) {
	cases := []float64{0, 1, -1, 1e-300, 1e300, 3.14159265358979, -2.718281828459045,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, x := range cases {
		if got := F64.Round(x); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("F64.Round(%g) = %g, want identity", x, got)
		}
		if got, want := F32.Round(x), float64(float32(x)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("F32.Round(%g) = %g, want %g", x, got, want)
		}
		if got, want := F16.Round(x), roundToHalf(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("F16.Round(%g) = %g, want %g", x, got, want)
		}
	}
	if got := F64.Round(math.NaN()); !math.IsNaN(got) {
		t.Errorf("F64.Round(NaN) = %g", got)
	}
}

// Micro-benchmarks for the tape hot path, kept as developer tools (make
// bench-smoke runs each once; the benchmark module's layer ladder times
// the same operations; before the precomputed charge factors, Array
// accessors branched on width and multiplied by scale per call). Each
// loop carries its value to a
// package-level sink: a result left in a local the compiler can see is
// dead lets it delete an inlined call along with the work being timed.

var sinkFloat float64

func BenchmarkArraySet(b *testing.B) {
	tape := NewTape(1)
	tape.SetPrec(0, F32)
	a := tape.NewArray(0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Set(i&1023, 1.5)
	}
}

func BenchmarkArrayGet(b *testing.B) {
	tape := NewTape(1)
	a := tape.NewArray(0, 1024)
	x := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x += a.Get(i & 1023)
	}
	sinkFloat = x
}

func BenchmarkArraySetEach(b *testing.B) {
	tape := NewTape(1)
	tape.SetPrec(0, F32)
	a := tape.NewArray(0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SetEach(func(j int) float64 { return float64(j) })
	}
}

func BenchmarkArraySetN(b *testing.B) {
	tape := NewTape(1)
	a := tape.NewArray(0, 1024)
	src := make([]float64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SetN(0, src)
	}
}

func BenchmarkTapeAssign(b *testing.B) {
	tape := NewTape(2)
	tape.SetPrec(1, F32)
	x := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = tape.Assign(0, x+1.0, 1, 1)
	}
	sinkFloat = x
}

// benchRound times p.Round on a loop-carried value, one row per ladder
// rung. For the narrow formats the value settles where adding 1.25 rounds
// back, so the loop times the normal-range path.
func benchRound(b *testing.B, p Prec) {
	x := 0.0
	for i := 0; i < b.N; i++ {
		x = p.Round(x + 1.25)
	}
	sinkFloat = x
}

func BenchmarkRoundF64(b *testing.B)    { benchRound(b, F64) }
func BenchmarkRoundF32(b *testing.B)    { benchRound(b, F32) }
func BenchmarkRoundF16(b *testing.B)    { benchRound(b, F16) }
func BenchmarkRoundBF16(b *testing.B)   { benchRound(b, BF16) }
func BenchmarkRoundCustom(b *testing.B) { benchRound(b, MustCustom(8, 12)) }

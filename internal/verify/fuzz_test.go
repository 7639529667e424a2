package verify

import (
	"encoding/binary"
	"math"
	"testing"
)

// referenceCheck is Check as it stood before finiteness became one
// exponent-mask compare: math.IsNaN and math.IsInf on the reference
// position first, then on the output. FuzzCheck keeps it as the oracle.
func referenceCheck(m Metric, ref, got []float64, threshold float64) (Verdict, error) {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for i := range got {
		if i < len(ref) && !finite(ref[i]) {
			continue
		}
		if !finite(got[i]) {
			return Verdict{Error: math.NaN(), Passed: false}, nil
		}
	}
	e, err := Compute(m, ref, got)
	if err != nil {
		return Verdict{}, err
	}
	if math.IsNaN(e) {
		return Verdict{Error: e, Passed: false}, nil
	}
	return Verdict{Error: e, Passed: e <= threshold}, nil
}

// floats decodes b as little-endian float64 bit patterns (a trailing
// partial word is dropped), so the fuzzer reaches every NaN payload,
// subnormal and signed zero.
func floats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// floatBytes is floats' inverse, for seeds.
func floatBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzCheck compares Check with referenceCheck bit for bit, for every
// built-in metric, over arbitrary reference and output bit patterns and
// thresholds: the same Verdict.Error bits, the same Passed, and the same
// error. The seeds cover ±0, subnormals, ±Inf, NaN payloads, non-finite
// reference positions, and outputs shorter and longer than the
// reference, including a longer one whose only non-finite value lies
// past the reference.
func FuzzCheck(f *testing.F) {
	nan := math.NaN()
	payloadNaN := math.Float64frombits(0x7ff0000000000001)
	negNaN := math.Float64frombits(0xfff8000000000abc)
	inf, ninf := math.Inf(1), math.Inf(-1)
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	seeds := []struct {
		ref, got  []float64
		threshold float64
	}{
		{[]float64{1, 2, 3}, []float64{1, 2, 3.5}, 1e-8},
		{[]float64{1, 2, 3}, []float64{1, 2, 3.5}, 1},
		{[]float64{0, negZero, sub}, []float64{negZero, 0, -sub}, 0},
		{[]float64{sub, 2 * sub, 1e-308}, []float64{0, sub, 1e-308}, 1e-300},
		{[]float64{1, 2, 3}, []float64{1, inf, 3}, 1e300},
		{[]float64{1, 2, 3}, []float64{ninf, 2, 3}, 1e300},
		{[]float64{1, 2, 3}, []float64{1, 2, nan}, 1e300},
		{[]float64{1, 2, 3}, []float64{payloadNaN, 2, 3}, 1},
		{[]float64{1, 2, 3}, []float64{1, negNaN, 3}, 1},
		{[]float64{inf, 2, nan}, []float64{inf, 2, 7}, 1},
		{[]float64{ninf, payloadNaN, 3}, []float64{nan, inf, 3}, 1},
		{[]float64{nan, nan}, []float64{nan, nan}, 1},
		{[]float64{1, 2, 3}, []float64{1, 2}, 1},
		{[]float64{1, 2}, []float64{1, 2, 3}, 1},
		{[]float64{1, 2}, []float64{1, 2, nan}, 1},
		{[]float64{1, nan}, []float64{1, 2, inf}, 1},
		{[]float64{1, 2, 3}, []float64{1, nan}, 1},
		{nil, []float64{inf}, 1},
		{nil, nil, 1},
		{[]float64{5, 5, 5}, []float64{5, 5, 5}, 0},
		{[]float64{5, 5, 5}, []float64{5, 5, 6}, 0},
		{[]float64{0.4, 1.6, 2.5}, []float64{0.6, 1.4, 2.5}, 0.5},
		{[]float64{1e308, -1e308}, []float64{-1e308, 1e308}, inf},
		{[]float64{1, 2, 3}, []float64{1, 2, 4}, nan},
	}
	for _, s := range seeds {
		f.Add(floatBytes(s.ref...), floatBytes(s.got...), s.threshold)
	}
	f.Fuzz(func(t *testing.T, refBytes, gotBytes []byte, threshold float64) {
		ref, got := floats(refBytes), floats(gotBytes)
		for m := MAE; m <= MCR; m++ {
			v, err := Check(m, ref, got, threshold)
			want, wantErr := referenceCheck(m, ref, got, threshold)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%v: error %v, want %v (ref %v, got %v)", m, err, wantErr, ref, got)
			}
			if math.Float64bits(v.Error) != math.Float64bits(want.Error) || v.Passed != want.Passed {
				t.Fatalf("%v: verdict {%#x %v}, want {%#x %v} (ref %v, got %v, threshold %g)",
					m, math.Float64bits(v.Error), v.Passed, math.Float64bits(want.Error), want.Passed, ref, got, threshold)
			}
		}
	})
}

package bench

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mp"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

func TestResultCodecRoundTrip(t *testing.T) {
	cases := map[string]Result{
		"zero": {},
		"nil-vs-empty": {
			Output:  Output{Values: []float64{}},
			Profile: []mp.VarProfile{},
		},
		"full": {
			Output: Output{Values: []float64{1.5, -0.25, 3.75e-300}},
			Cost: mp.Cost{
				Flops64: 1, Flops32: 2, Flops16: 3, Casts: 4,
				Bytes64: 5, Bytes32: 6, Bytes16: 7,
				Footprint64: 8, Footprint32: 9, Footprint16: 10,
			},
			Profile: []mp.VarProfile{
				{Bytes: 11, Flops: 12, Casts: 13},
				{Bytes: 0, Flops: 1 << 60, Casts: 0},
			},
			ModelTime: 0.0625,
			Measured:  perfmodel.Measurement{Mean: 0.03125, Runs: 10, Total: 0.625},
		},
		"non-finite": {
			Output:    Output{Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}},
			ModelTime: math.Inf(1),
		},
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			enc := EncodeResult(nil, r)
			got, err := DecodeResult(enc)
			if err != nil {
				t.Fatalf("DecodeResult: %v", err)
			}
			// reflect.DeepEqual treats NaN != NaN; compare via bits.
			if !resultsBitEqual(got, r) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
			}
			// nil-ness must survive, not just emptiness.
			if (got.Output.Values == nil) != (r.Output.Values == nil) ||
				(got.Profile == nil) != (r.Profile == nil) {
				t.Fatalf("nil-ness lost: got values=%v profile=%v", got.Output.Values, got.Profile)
			}
		})
	}
}

func TestResultCodecRejectsBadPayloads(t *testing.T) {
	good := EncodeResult(nil, Result{Output: Output{Values: []float64{1, 2}}})
	// Every strict truncation must fail, never decode to a wrong value.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeResult(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := DecodeResult(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}
	bad := append([]byte{}, good...)
	bad[0] = 99 // future codec version
	if _, err := DecodeResult(bad); err == nil {
		t.Fatal("future codec version decoded successfully")
	}
}

// resultsBitEqual compares two Results treating float64s by bit pattern.
func resultsBitEqual(a, b Result) bool {
	if len(a.Output.Values) != len(b.Output.Values) {
		return false
	}
	for i := range a.Output.Values {
		if math.Float64bits(a.Output.Values[i]) != math.Float64bits(b.Output.Values[i]) {
			return false
		}
	}
	if a.Cost != b.Cost || !reflect.DeepEqual(a.Profile, b.Profile) {
		return false
	}
	return math.Float64bits(a.ModelTime) == math.Float64bits(b.ModelTime) &&
		math.Float64bits(a.Measured.Mean) == math.Float64bits(b.Measured.Mean) &&
		a.Measured.Runs == b.Measured.Runs &&
		math.Float64bits(a.Measured.Total) == math.Float64bits(b.Measured.Total)
}

func TestStoreFingerprintSeparatesInputs(t *testing.T) {
	a, b := StoreFingerprint(1), StoreFingerprint(2)
	if a == b {
		t.Fatal("different models produced the same store fingerprint")
	}
	if StoreFingerprint(1) != a {
		t.Fatal("StoreFingerprint not deterministic")
	}
	if StoreFingerprint(1) == uint64(1) {
		t.Fatal("store fingerprint must differ from the raw model fingerprint")
	}
}

// TestStoredCacheWarmAcrossGenerations is the bench-level version of the
// tentpole's restart guarantee: a second cache over a reopened store
// serves the first generation's executions without re-running anything,
// and the served results are bit-identical.
func TestStoredCacheWarmAcrossGenerations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	fp := StoreFingerprint(NewRunner(42).ModelFingerprint())
	run := func(st *store.Store) (Result, Result, *Runner) {
		r := NewRunner(42)
		r.Cache = NewStoredCache(nil, st)
		b := newStub(0)
		base := r.Run(b, nil)
		single := r.Run(b, AllSingle(2))
		return base, single, r
	}

	st, err := store.Open(dir, store.Options{Fingerprint: fp})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base1, single1, _ := run(st)
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := store.Open(dir, store.Options{Fingerprint: fp})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	base2, single2, r2 := run(st2)
	if !resultsBitEqual(base1, base2) || !resultsBitEqual(single1, single2) {
		t.Fatal("second generation served different results from the store")
	}
	cs := r2.Cache.Stats()
	if cs.TierHits != 2 || cs.Misses != 0 {
		t.Fatalf("second generation executed instead of hitting the store: %+v", cs)
	}
	ss := st2.Stats()
	if ss.GetHits != 2 {
		t.Fatalf("store stats after warm run: %+v", ss)
	}
}

// FuzzDecodeResult checks the decoder of the durable tier's records,
// which it reads back from disk: it never panics, and every payload it
// accepts re-encodes to exactly the input bytes, so a record that decodes
// is the record that was written. The seed corpus under testdata/fuzz
// covers nil and empty slices, NaN and infinity bits, a profile, and
// truncated, trailing-byte, wrong-version, and oversized-length payloads.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		if enc := EncodeResult(nil, r); !bytes.Equal(enc, b) {
			t.Fatalf("DecodeResult accepted %x, which re-encodes to %x", b, enc)
		}
	})
}

package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mp"
	"repro/internal/perfmodel"
	"repro/internal/runcache"
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

// allocPerCall returns the bytes f allocates per call over calls
// i = from, ..., to-1, counting every goroutine (the store's writer too).
func allocPerCall(from, to int, f func(i int)) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := from; i < to; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(to-from)
}

// TestStoreTierAllocatesOneRecordCopy checks the durable tier's byte
// path. Storing a fresh result and syncing it allocates about one copy
// of its encoding: the exact-size encoding that Put takes over, framed
// into the writer's reused batch buffer. A Get allocates about one
// record, the buffer its value is a view of. Reopening the store
// allocates for its largest record and its index, not for every byte it
// holds.
func TestStoreTierAllocatesOneRecordCopy(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Fingerprint: StoreFingerprint(1)}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r := Result{Output: Output{Values: make([]float64, 2000)}, Profile: make([]mp.VarProfile, 20)}
	encLen := uint64(len(EncodeResult(nil, r)))
	key := func(i int) runcache.Key { return runcache.Key{Bench: "alloc", Seed: int64(i), Config: "0110"} }
	recLen := encLen + uint64(len(key(0).AppendBinary(nil))) + 12
	tier := storeTier{st: st}
	const records = 64

	put := func(i int) {
		tier.Store(key(i), r)
		if err := st.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	put(0) // warm up the writer's batch buffer
	got := allocPerCall(1, records, put)
	t.Logf("record %d bytes (encoding %d): Store+Sync allocates %d bytes", recLen, encLen, got)
	if limit := encLen*5/4 + 4<<10; got > limit {
		t.Errorf("Store and Sync of a %d-byte encoding allocated %d bytes, want at most %d", encLen, got, limit)
	}

	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = key(i).AppendBinary(nil)
	}
	get := func(i int) {
		if _, ok := st.Get(keys[i]); !ok {
			t.Fatalf("Get(%d) missed", i)
		}
	}
	got = allocPerCall(0, records, get)
	t.Logf("Get allocates %d bytes", got)
	if limit := recLen*5/4 + 256; got > limit {
		t.Errorf("Get of a %d-byte record allocated %d bytes, want at most %d", recLen, got, limit)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The index costs each record its key and a map entry; 512 bytes a
	// record bounds that with room to spare.
	var reopened *store.Store
	open := allocPerCall(0, 1, func(int) {
		if reopened, err = store.Open(dir, opts); err != nil {
			t.Fatalf("reopen: %v", err)
		}
	})
	defer reopened.Close()
	t.Logf("Open of %d records allocates %d bytes", records, open)
	if n := reopened.Stats().Records; n != records {
		t.Fatalf("reopened store holds %d records, want %d", n, records)
	}
	if limit := 2*recLen + records*512 + 32<<10; open > limit {
		t.Errorf("opening %d records of %d bytes allocated %d bytes, want at most %d", records, recLen, open, limit)
	}
}

// FuzzDecodeResult checks the decoder of the durable tier's records,
// which it reads back from disk: it never panics, and every payload it
// accepts re-encodes to exactly the input bytes, so a record that decodes
// is the record that was written. The re-encoding is also one
// allocation of exactly its length. The seed corpus under testdata/fuzz
// covers nil and empty slices, NaN and infinity bits, a profile, and
// truncated, trailing-byte, wrong-version, previous-version, and
// oversized-length payloads; TestDecodeResultCorpus keeps each seed on
// the path it was written for.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		enc := EncodeResult(nil, r)
		if !bytes.Equal(enc, b) {
			t.Fatalf("DecodeResult accepted %x, which re-encodes to %x", b, enc)
		}
		if cap(enc) != len(enc) {
			t.Fatalf("EncodeResult(nil, r) returned %d bytes in a slice of capacity %d, want one exact-size allocation", len(enc), cap(enc))
		}
	})
}

// TestDecodeResultCorpus checks that FuzzDecodeResult's seeds are
// written in the current codec version and still reach the decoder path
// each was written for: the seeds meant to decode do decode and re-encode
// to themselves, and every other seed is refused with its own error, not
// with a version mismatch it was not written to test. A codec change
// that leaves the corpus behind fails here.
func TestDecodeResultCorpus(t *testing.T) {
	const accepted = ""
	wantErr := map[string]string{
		"empty":                    "codec version 0", // the missing version byte reads as 0
		"empty-slices":             accepted,
		"nil-slices":               accepted,
		"non-finite":               accepted,
		"oversized-profile-length": "profile length",
		"oversized-value-length":   "value slice length",
		"previous-version":         "codec version 2",
		"profile":                  accepted,
		"trailing-byte":            "trailing bytes",
		"truncated":                "truncated",
		"wrong-version":            "codec version 1",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeResult")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(wantErr) {
		t.Errorf("corpus holds %d seeds, this test classifies %d", len(files), len(wantErr))
	}
	for _, f := range files {
		want, ok := wantErr[f.Name()]
		if !ok {
			t.Errorf("seed %s is not classified", f.Name())
			continue
		}
		b := readCorpusBytes(t, filepath.Join(dir, f.Name()))
		r, err := DecodeResult(b)
		switch {
		case want == accepted && err != nil:
			t.Errorf("seed %s: %v", f.Name(), err)
		case want == accepted && !bytes.Equal(EncodeResult(nil, r), b):
			t.Errorf("seed %s does not re-encode to itself", f.Name())
		case want != accepted && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("seed %s: error %v, want one mentioning %q", f.Name(), err, want)
		}
	}
}

// readCorpusBytes reads the single []byte value of a fuzz corpus file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s is not a one-value corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s does not hold a []byte value", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

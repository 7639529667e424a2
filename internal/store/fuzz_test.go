package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedRecords is the number of records (testKey(i), testVal(i)) the
// seed corpus segments hold.
const fuzzSeedRecords = 3

// FuzzOpen checks store recovery over arbitrary segment bytes. The
// inputs are the files 00000001.seg (sealed) and 00000002.seg (active);
// an empty second input writes only the first, which is then the active
// segment. Open never panics and refuses only a segment written under
// another format version or fingerprint: anything else boots, by
// truncating a torn tail or quarantining a corrupt segment. A Get of
// each seed key then misses or returns exactly the value written, and
// the recovered store takes a Put and Sync, closes cleanly, and serves
// that record after a reopen. The seed corpus under testdata/fuzz holds
// a clean three-record segment, the same segment with a torn tail, a
// sealed segment with one flipped record byte beside a clean active one
// (the rescue-and-quarantine path), a garbage header, and another
// version's header.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, sealed, active []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(active) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), active, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{Fingerprint: testFP})
		if err != nil {
			if !errors.Is(err, ErrVersion) && !errors.Is(err, ErrFingerprint) {
				t.Fatalf("Open refused a recoverable store: %v", err)
			}
			return
		}
		for i := 0; i < fuzzSeedRecords; i++ {
			if got, ok := s.Get(testKey(i)); ok && !bytes.Equal(got, testVal(i)) {
				t.Errorf("Get(%s) = %x, want a miss or %x", testKey(i), got, testVal(i))
			}
		}
		key, val := testKey(fuzzSeedRecords), testVal(fuzzSeedRecords)
		s.Put(key, val)
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		s, err = Open(dir, Options{Fingerprint: testFP})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer s.Close()
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
			t.Errorf("Get(%s) after reopen = %x, %t; want the record put after recovery", key, got, ok)
		}
	})
}

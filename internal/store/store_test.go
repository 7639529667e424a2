package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

const testFP = 0xfeedface12345678

// openTest opens a store in dir with small segments so tests exercise
// rotation without megabytes of data.
func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Fingerprint == 0 {
		opts.Fingerprint = testFP
	}
	if opts.MaxSegmentBytes == 0 {
		opts.MaxSegmentBytes = 4 << 10
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func testKey(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
func testVal(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 40) }
func mustSync(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const n = 100
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testVal(i))
	}
	mustSync(t, s)
	for i := 0; i < n; i++ {
		got, ok := s.Get(testKey(i))
		if !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("Get(%s) before close: ok=%v", testKey(i), ok)
		}
	}
	if _, ok := s.Get([]byte("absent")); ok {
		t.Fatal("Get(absent) hit")
	}
	st := s.Stats()
	if st.Records != n || st.Puts != n || !st.Healthy {
		t.Fatalf("stats before close: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	for i := 0; i < n; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("Get(%s) after reopen: ok=%v", testKey(i), ok)
		}
	}
	st = s2.Stats()
	if st.Records != n || st.TruncatedBytes != 0 || st.Quarantined != 0 {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
	if st.Segments < 2 {
		t.Fatalf("expected rotation to multiple segments, got %d", st.Segments)
	}
}

// TestDuplicatePutsAreDropped checks the store's rule for a key put more
// than once: the first write wins and later ones write nothing, whether
// they arrive in a later batch or in the same one.
func TestDuplicatePutsAreDropped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Put(testKey(1), testVal(1))
	}
	mustSync(t, s)
	st := s.Stats()
	if st.Records != 1 || st.Puts != 1 {
		t.Fatalf("duplicate puts not deduped: %+v", st)
	}

	// A later batch: the key is already indexed.
	s.Put(testKey(1), testVal(2))
	mustSync(t, s)
	// One batch: the writer drains whatever the queue holds, so two Puts
	// share a batch only by timing. The writer is idle after Sync, and
	// runBatch is what it runs on each batch.
	s.runBatch([]putReq{{key: testKey(3), val: testVal(3)}, {key: testKey(3), val: testVal(4)}})
	check := func(s *Store, when string) {
		t.Helper()
		for key, want := range map[int]int{1: 1, 3: 3} {
			if got, ok := s.Get(testKey(key)); !ok || !bytes.Equal(got, testVal(want)) {
				t.Errorf("%s: Get(%s) = %x, %v; want the first value put, %x", when, testKey(key), got, ok, testVal(want))
			}
		}
		if st := s.Stats(); st.Records != 2 || st.DeadBytes != 0 {
			t.Errorf("%s: stats %+v, want 2 records and no dead bytes", when, st)
		}
	}
	check(s, "before reopen")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Had a second copy reached the segment, the later one would win here.
	reopened := openTest(t, dir, Options{})
	defer reopened.Close()
	check(reopened, "after reopen")
}

func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("nil Get hit")
	}
	s.Put([]byte("k"), []byte("v")) // must not panic
	if err := s.Sync(); err != nil {
		t.Fatalf("nil Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if !s.Healthy() {
		t.Fatal("nil store not healthy")
	}
	if st := s.Stats(); !st.ReadOnly || !st.Healthy {
		t.Fatalf("nil Stats: %+v", st)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10})
	const n = 60
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testVal(i))
		if i%10 == 9 {
			mustSync(t, s) // bound the group-commit batch so rotation kicks in
		}
	}
	mustSync(t, s)
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("want several segments before compaction, got %d", st.Segments)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.Segments != 1 || st.Records != n || st.DeadBytes != 0 || st.Compactions == 0 {
		t.Fatalf("stats after compaction: %+v", st)
	}
	for i := 0; i < n; i++ {
		if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("Get(%s) after compaction: ok=%v", testKey(i), ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("Get(%s) lost across compaction+reopen", testKey(i))
		}
	}
}

func TestEviction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10, MaxBytes: 2 << 10})
	const n = 80
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testVal(i))
	}
	mustSync(t, s)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.Evicted == 0 || st.Records == n {
		t.Fatalf("expected eviction under MaxBytes: %+v", st)
	}
	if st.LiveBytes > 2<<10 {
		t.Fatalf("live bytes %d over budget", st.LiveBytes)
	}
	// Eviction is oldest-first: the newest record must survive, the
	// oldest must be gone.
	if _, ok := s.Get(testKey(n - 1)); !ok {
		t.Fatal("newest record evicted")
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("oldest record survived a full-budget eviction")
	}
	s.Close()
}

func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Fingerprint: 0x1111})
	s.Put(testKey(1), testVal(1))
	mustSync(t, s)
	s.Close()

	_, err := Open(dir, Options{Fingerprint: 0x2222})
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Open with wrong fingerprint: %v, want ErrFingerprint", err)
	}
	// The message must be actionable: name both fingerprints.
	for _, want := range []string{"0000000000001111", "0000000000002222", "fresh store directory"} {
		if !contains(err.Error(), want) {
			t.Errorf("fingerprint error %q missing %q", err, want)
		}
	}
	// The right fingerprint still opens.
	s2 := openTest(t, dir, Options{Fingerprint: 0x1111})
	if _, ok := s2.Get(testKey(1)); !ok {
		t.Fatal("record lost after refused open")
	}
	s2.Close()
}

func TestVersionSkew(t *testing.T) {
	dir := t.TempDir()
	// Craft a segment whose header is valid (magic + checksum) but
	// carries a future format version.
	var hdr []byte
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, 99)
	hdr = binary.LittleEndian.AppendUint64(hdr, testFP)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{Fingerprint: testFP})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Open with version-skew segment: %v, want ErrVersion", err)
	}
	if !contains(err.Error(), "version 99") || !contains(err.Error(), "incompatible build") {
		t.Errorf("version error not actionable: %q", err)
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testVal(i))
	}
	mustSync(t, s)
	s.Close()

	ro, err := Open(dir, Options{Fingerprint: testFP, ReadOnly: true})
	if err != nil {
		t.Fatalf("Open read-only: %v", err)
	}
	defer ro.Close()
	for i := 0; i < n; i++ {
		if got, ok := ro.Get(testKey(i)); !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("read-only Get(%s): ok=%v", testKey(i), ok)
		}
	}
	ro.Put([]byte("new"), []byte("record"))
	if err := ro.Sync(); err != nil {
		t.Fatalf("read-only Sync: %v", err)
	}
	if _, ok := ro.Get([]byte("new")); ok {
		t.Fatal("read-only store accepted a Put")
	}
	st := ro.Stats()
	if !st.ReadOnly || st.DroppedPuts == 0 {
		t.Fatalf("read-only stats: %+v", st)
	}
	if err := ro.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Compact: %v, want ErrReadOnly", err)
	}

	// Read-only on a missing directory is a distinct, immediate error.
	if _, err := Open(filepath.Join(dir, "nope"), Options{Fingerprint: testFP, ReadOnly: true}); err == nil {
		t.Fatal("read-only Open of missing dir succeeded")
	}
}

func TestQuarantineCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10})
	const n = 60
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testVal(i))
		if i%10 == 9 {
			mustSync(t, s) // bound the group-commit batch so rotation kicks in
		}
	}
	mustSync(t, s)
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("need ≥3 segments, got %d", st.Segments)
	}
	s.Close()

	// Corrupt the middle of the SECOND segment (sealed: not the active,
	// highest-numbered one): flip a byte inside its record region.
	seg2 := filepath.Join(dir, "00000002.seg")
	b, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	mid := headerLen + (len(b)-headerLen)/2
	b[mid] ^= 0xff
	if err := os.WriteFile(seg2, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	st := s2.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("want 1 quarantined segment, stats: %+v", st)
	}
	if st.RescuedRecords == 0 {
		t.Fatalf("want rescued records from the valid prefix, stats: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "00000002.seg")); err != nil {
		t.Fatalf("corrupt segment not moved to quarantine: %v", err)
	}
	if _, err := os.Stat(seg2); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still in place: %v", err)
	}
	// Everything outside the corrupt segment's torn suffix survives.
	// Count survivors: all n records minus those lost in the suffix.
	var lost int
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(testKey(i)); !ok {
			lost++
		}
	}
	if lost == 0 || lost >= n/2 {
		t.Fatalf("lost %d of %d records; want a small suffix of one segment", lost, n)
	}
	// A third generation must boot clean: the rescue re-homed the valid
	// prefix, so nothing depends on the quarantined file.
	s2.Close()
	s3 := openTest(t, dir, Options{})
	st3 := s3.Stats()
	if st3.Quarantined != 0 || st3.Records != uint64(n-lost) {
		t.Fatalf("third generation stats: %+v (lost=%d)", st3, lost)
	}
	s3.Close()
}

func TestQuarantineGarbageHeader(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	s.Put(testKey(1), testVal(1))
	mustSync(t, s)
	s.Close()

	// Drop a file of garbage where a segment is expected.
	if err := os.WriteFile(filepath.Join(dir, "00000099.seg"), []byte("not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("garbage segment not quarantined: %+v", st)
	}
	if _, ok := s2.Get(testKey(1)); !ok {
		t.Fatal("good record lost alongside garbage segment")
	}
}

// TestTornTailProperty is the recovery property test: for EVERY possible
// truncation point of the active segment, reopening the store recovers
// exactly the records whose append fully completed - never fewer (a
// fsync'd record lost) and never a partial record.
func TestTornTailProperty(t *testing.T) {
	master := t.TempDir()
	s := openTest(t, master, Options{MaxSegmentBytes: 1 << 30}) // one segment
	const n = 8
	var ends []int64 // byte offset at which record i's frame ends
	off := int64(headerLen)
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testVal(i))
		mustSync(t, s)
		off += recordSize(len(testKey(i)), len(testVal(i)))
		ends = append(ends, off)
	}
	s.Close()
	segName := "00000001.seg"
	full, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[n-1] {
		t.Fatalf("segment size %d, expected %d", len(full), ends[n-1])
	}

	for cut := int64(headerLen); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{Fingerprint: testFP})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		// Records fully contained in the cut must survive; nothing else.
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		st := s2.Stats()
		if int(st.Records) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, st.Records, want)
		}
		for i := 0; i < want; i++ {
			if got, ok := s2.Get(testKey(i)); !ok || !bytes.Equal(got, testVal(i)) {
				t.Fatalf("cut=%d: record %d lost or wrong", cut, i)
			}
		}
		wantTrunc := cut - int64(headerLen)
		if want > 0 {
			wantTrunc = cut - ends[want-1]
		}
		if st.TruncatedBytes != wantTrunc {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, st.TruncatedBytes, wantTrunc)
		}
		// The store stays writable after recovery.
		s2.Put([]byte("post-recovery"), []byte("value"))
		if err := s2.Sync(); err != nil {
			t.Fatalf("cut=%d: post-recovery Sync: %v", cut, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		// And a third open sees the truncated-then-extended file clean.
		s3, err := Open(dir, Options{Fingerprint: testFP})
		if err != nil {
			t.Fatalf("cut=%d: reopen after recovery: %v", cut, err)
		}
		if _, ok := s3.Get([]byte("post-recovery")); !ok {
			t.Fatalf("cut=%d: post-recovery record lost", cut)
		}
		if st3 := s3.Stats(); st3.TruncatedBytes != 0 {
			t.Fatalf("cut=%d: third open truncated %d bytes from a clean file", cut, st3.TruncatedBytes)
		}
		s3.Close()
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 2 << 10})
	defer s.Close()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s.Put(testKey(i), testVal(i)) // all workers race the same keys
				s.Get(testKey(i))
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	mustSync(t, s)
	st := s.Stats()
	if st.Records != 200 {
		t.Fatalf("concurrent racing puts: %d records, want 200", st.Records)
	}
	for i := 0; i < 200; i++ {
		if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, testVal(i)) {
			t.Fatalf("Get(%s) after concurrent load: ok=%v", testKey(i), ok)
		}
	}
}

// TestConcurrentStats runs Get, Put, Stats and Sync from several
// goroutines at once, as mixpd does when /healthz and /cachediag read
// Stats while campaigns use the store. Get and Put count without the
// store's lock, so under -race this checks that Stats reads those
// counters atomically; the totals must also add up.
func TestConcurrentStats(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer s.Close()
	const workers, n = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := w*n + i
				s.Put(testKey(k), testVal(k))
				s.Get(testKey(k))
				s.Stats()
				if i%25 == 24 {
					if err := s.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	mustSync(t, s)
	st := s.Stats()
	if st.Gets != workers*n || st.Puts != workers*n || st.Records != workers*n || st.DroppedPuts != 0 || st.ReadErrors != 0 {
		t.Fatalf("stats after %d concurrent Put/Get pairs: %+v", workers*n, st)
	}
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}

package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// formatBatches is the Put sequence behind the committed segments in
// testdata/format: each inner slice is put, then synced. With 250-byte
// segments, the first segment takes record 0 (an empty value), a
// five-put group commit of records 1 to 4 with a repeat of 2 that is
// deduplicated, and record 5, which carries it past the limit and
// rotates; the second segment takes records 6 and 7 in one batch.
var formatBatches = [][]int{{0}, {1, 2, 3, 2, 4}, {5}, {6, 7}}

// formatSegments names the files the sequence leaves behind.
var formatSegments = []string{"00000001.seg", "00000002.seg"}

// formatVal gives the records values of different lengths, 8*i bytes.
func formatVal(i int) []byte { return testVal(i)[:8*i] }

// TestSegmentFormatGolden locks the on-disk format: the fixed Put
// sequence writes exactly the committed segment bytes, and a store made
// of those committed segments opens and serves every record. Stores
// already on disk were written in this format, so a change that alters
// one framed byte fails here. MIXP_UPDATE_GOLDEN=1 rewrites the
// segments, which is only right together with a segVersion bump.
func TestSegmentFormatGolden(t *testing.T) {
	golden := filepath.Join("testdata", "format")
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 250})
	for _, batch := range formatBatches {
		for _, i := range batch {
			s.Put(testKey(i), formatVal(i))
		}
		mustSync(t, s)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(formatSegments) {
		t.Fatalf("the sequence left %d files, want the segments %v", len(entries), formatSegments)
	}
	update := os.Getenv("MIXP_UPDATE_GOLDEN") != ""
	for _, name := range formatSegments {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(golden, name)
		if update {
			if err := os.MkdirAll(golden, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed %s:\n got %x\nwant %x", name, path, got, want)
		}
	}

	committed := t.TempDir()
	for _, name := range formatSegments {
		b, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(committed, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s = openTest(t, committed, Options{})
	defer s.Close()
	if st := s.Stats(); st.Records != 8 || st.Segments != 2 || st.TruncatedBytes != 0 || st.Quarantined != 0 {
		t.Fatalf("opening the committed store: %+v", st)
	}
	for i := 0; i < 8; i++ {
		if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, formatVal(i)) {
			t.Errorf("Get(%s) from the committed store = %x, %t; want %x", testKey(i), got, ok, formatVal(i))
		}
	}
}

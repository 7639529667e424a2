package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadArchive checks the history archives every mixpd boot reads
// from disk, over arbitrary bytes in the file of campaign c0001. The
// decoder never panics. An engine booted over the directory restores
// exactly the archives readArchive accepts and quarantines the rest, and
// a restored campaign's Status, Results, and Events answer with the
// archive's contents. An accepted archive written again by writeArchive
// reads back unchanged (compared by JSON encoding, since NaN metrics
// never compare equal). The seed corpus under testdata/fuzz holds an
// archive writeArchive wrote, a torn copy, an unknown field, a
// non-terminal state, a negative job count, and events whose seq
// disagrees with their position, plus the archives the decoder once
// accepted: a negative and a huge completed count (Results panicked
// sizing its answer), a record count that disagrees with completed, an
// ID that does not name the file, and data after the document.
func FuzzReadArchive(f *testing.F) {
	const id = "c0001"
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, id+".json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		a, readErr := readArchive(filepath.Join(dir, id+".json"))

		e := New(Options{MaxConcurrent: 1, HistoryDir: dir})
		defer e.Close()
		st, err := e.Status(id)
		if readErr != nil {
			if err == nil {
				t.Errorf("boot restored an archive readArchive refuses: %v", readErr)
			}
			if h := e.Health(); h.HistoryLoadErrors != 1 || h.Campaigns != 0 {
				t.Errorf("refused archive left health %+v, want one load error and no campaign", h)
			}
			return
		}
		if err != nil {
			t.Fatalf("boot did not restore an accepted archive: %v", err)
		}
		if want := (Status{ID: a.ID, Name: a.Name, State: a.State, Jobs: a.Jobs, Completed: a.Completed, Error: a.Error}); st != want {
			t.Errorf("restored status %+v, want %+v", st, want)
		}
		if sts := e.Statuses(); len(sts) != 1 || sts[0] != st {
			t.Errorf("Statuses %+v, want only %+v", sts, st)
		}
		recs, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(a.Records) || (len(recs) > 0 && mustJSON(t, recs) != mustJSON(t, a.Records)) {
			t.Errorf("restored results differ from the archive:\n%s\nwant\n%s", mustJSON(t, recs), mustJSON(t, a.Records))
		}
		log, err := e.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		events, closed := log.Since(0)
		if !closed || len(events) != len(a.Events) {
			t.Errorf("restored event log: %d events, closed %v; want %d, closed", len(events), closed, len(a.Events))
		}

		w := &Engine{opts: Options{HistoryDir: t.TempDir()}}
		if err := w.writeArchive(a); err != nil {
			t.Fatalf("accepted archive cannot be written again: %v", err)
		}
		back, err := readArchive(w.archivePath(a.ID))
		if err != nil {
			t.Fatalf("written archive does not read back: %v", err)
		}
		if got, want := mustJSON(t, back), mustJSON(t, a); got != want {
			t.Errorf("archive changed on a write and read:\n--- read ---\n%s\n--- re-read ---\n%s", want, got)
		}
	})
}

// mustJSON is v's JSON encoding.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

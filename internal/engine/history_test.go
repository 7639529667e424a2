package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestEngineRestartServesArchivedCampaigns is the engine-level half of
// the tentpole restart guarantee: a second engine generation over the
// same history directory answers for the first generation's campaigns
// - status, journal-shaped results, and the full event log - byte for
// byte, so SSE clients resume with Last-Event-ID across the restart
// and see exactly the frames they would have seen live.
func TestEngineRestartServesArchivedCampaigns(t *testing.T) {
	dir := t.TempDir()

	// Generation 1 runs the campaign to completion.
	e1 := New(Options{Workers: 2, HistoryDir: dir})
	id, err := e1.Submit(engineYAML, SubmitOptions{Seed: 42, Name: "gen1"})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := e1.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != StateDone {
		t.Fatalf("state %s, want done (err %q)", st1.State, st1.Error)
	}
	recs1, err := e1.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	log1, err := e1.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	events1, _ := log1.Since(0)
	e1.Close()

	// Generation 2 boots over the same history directory.
	e2 := New(Options{Workers: 2, HistoryDir: dir})
	defer e2.Close()

	st2, err := e2.Status(id)
	if err != nil {
		t.Fatalf("restarted engine lost campaign %s: %v", id, err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("status changed across restart:\n gen1 %+v\n gen2 %+v", st1, st2)
	}
	recs2, err := e2.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recordsJSON(t, recs2), recordsJSON(t, recs1); got != want {
		t.Errorf("results diverge across restart:\n--- gen1 ---\n%s\n--- gen2 ---\n%s", want, got)
	}

	// The archived event log replays byte-identically: a client that
	// consumed the first N events live resumes from N and the frames
	// marshal to the same bytes.
	log2, err := e2.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	events2, closed := log2.Since(0)
	if !closed {
		t.Error("archived event log not closed")
	}
	if len(events2) != len(events1) {
		t.Fatalf("event count changed across restart: %d vs %d", len(events2), len(events1))
	}
	for i := range events1 {
		b1, err1 := json.Marshal(events1[i])
		b2, err2 := json.Marshal(events2[i])
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal event %d: %v / %v", i, err1, err2)
		}
		if string(b1) != string(b2) {
			t.Fatalf("event %d changed across restart:\n gen1 %s\n gen2 %s", i, b1, b2)
		}
	}
	resume := len(events1) / 2
	tail, _ := log2.Since(resume)
	if len(tail) != len(events1)-resume {
		t.Fatalf("Since(%d) returned %d events, want %d", resume, len(tail), len(events1)-resume)
	}

	// Live-only artifacts are gone, distinctly: ErrArchived, not
	// ErrNotFound or ErrNotReady.
	if _, err := e2.Trace(id); !errors.Is(err, ErrArchived) {
		t.Errorf("Trace on archived campaign: %v, want ErrArchived", err)
	}
	if _, err := e2.Profile(id, 0); !errors.Is(err, ErrArchived) {
		t.Errorf("Profile on archived campaign: %v, want ErrArchived", err)
	}
	if _, err := e2.CacheDiag(id); !errors.Is(err, ErrArchived) {
		t.Errorf("CacheDiag on archived campaign: %v, want ErrArchived", err)
	}
	if err := e2.WriteMetrics(id, os.NewFile(0, "")); !errors.Is(err, ErrArchived) {
		t.Errorf("WriteMetrics on archived campaign: %v, want ErrArchived", err)
	}
	if err := e2.Cancel(id); err != nil {
		t.Errorf("Cancel on archived campaign: %v, want no-op", err)
	}

	// New submissions never collide with restored IDs.
	id2, err := e2.Submit(engineYAML, SubmitOptions{Seed: 42, Name: "gen2"})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted engine reissued campaign ID %s", id)
	}
	if _, err := e2.Wait(context.Background(), id2); err != nil {
		t.Fatal(err)
	}

	h := e2.Health()
	if !h.Healthy() || h.Archived != 1 || h.Campaigns != 2 {
		t.Errorf("health after restart: %+v", h)
	}
}

// TestEngineHistoryQuarantinesCorruptArchive locks the boot policy: a
// corrupt history document is renamed aside and counted, never a
// reason to refuse to start, and intact archives still load.
func TestEngineHistoryQuarantinesCorruptArchive(t *testing.T) {
	dir := t.TempDir()

	e1 := New(Options{Workers: 2, HistoryDir: dir})
	id, err := e1.Submit(engineYAML, SubmitOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// One intact archive, one torn, one that is not JSON at all.
	if err := os.WriteFile(filepath.Join(dir, "c0002.json"), []byte(`{"id":"c0002","state":"done"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c0003.json"), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{HistoryDir: dir})
	defer e2.Close()
	if _, err := e2.Status(id); err != nil {
		t.Errorf("intact archive lost alongside corrupt ones: %v", err)
	}
	for _, gone := range []string{"c0002", "c0003"} {
		if _, err := e2.Status(gone); !errors.Is(err, ErrNotFound) {
			t.Errorf("corrupt archive %s served: %v", gone, err)
		}
		if _, err := os.Stat(filepath.Join(dir, gone+".json.corrupt")); err != nil {
			t.Errorf("corrupt archive %s not quarantined: %v", gone, err)
		}
	}
	h := e2.Health()
	if h.HistoryLoadErrors != 2 || h.Healthy() {
		t.Errorf("health after corrupt boot: %+v", h)
	}
	if h.LastHistoryError == "" || !strings.Contains(h.LastHistoryError, "c0003") {
		t.Errorf("last history error not actionable: %q", h.LastHistoryError)
	}

	// The counter resumed past the corrupt IDs' survivor: a fresh
	// submission gets a fresh ID.
	id2, err := e2.Submit(engineYAML, SubmitOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("ID %s reissued after corrupt boot", id2)
	}
}

// TestArchiveFormsReadAlike locks the archive format change: writeArchive
// writes compact JSON, and readArchive reads the indented documents
// earlier versions wrote. The committed indented archive re-written by
// writeArchive is exactly its compact form, and the compact fuzz seeds
// are accepted or refused as their indented counterparts are: a written
// archive reads, an unknown field inside an event and a skipped seq do
// not.
func TestArchiveFormsReadAlike(t *testing.T) {
	indented, err := os.ReadFile(filepath.Join("testdata", "parent-archive", "c0001.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := readArchive(filepath.Join("testdata", "parent-archive", "c0001.json"))
	if err != nil {
		t.Fatalf("indented archive refused: %v", err)
	}
	w := &Engine{opts: Options{HistoryDir: t.TempDir()}}
	if err := w.writeArchive(a); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(w.archivePath(a.ID))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	compact.WriteByte('\n')
	if !bytes.Equal(written, compact.Bytes()) {
		t.Errorf("writeArchive output is not the compact form of the indented archive:\n%s", written)
	}

	for _, c := range []struct {
		seed string
		ok   bool
	}{
		{"written", true},
		{"compact-written", true},
		{"unknown-field", false},
		{"compact-unknown-event-field", false},
		{"seq-out-of-position", false},
		{"compact-skipped-seq", false},
	} {
		doc := fuzzSeed(t, c.seed)
		path := filepath.Join(t.TempDir(), "c0001.json")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readArchive(path); (err == nil) != c.ok {
			t.Errorf("seed %s: readArchive error %v, want accepted %v", c.seed, err, c.ok)
		}
	}
}

// fuzzSeed decodes one FuzzReadArchive corpus file.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadArchive", name))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("seed %s: not a []byte corpus file", name)
	}
	doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(doc)
}

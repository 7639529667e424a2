package harness

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestResumeErrorPaths is the satellite table test: every way a resume
// can be refused - journal fingerprint mismatch, journal version skew,
// not a journal at all, wrong job count, a record for another entry, and
// a result store opened against the wrong fingerprint or read-only on a
// missing directory - must produce a DISTINCT sentinel (errors.Is) and
// an actionable message, so an operator can tell "re-run the campaign"
// apart from "wrong file" apart from "wrong machine model" without
// reading source.
func TestResumeErrorPaths(t *testing.T) {
	dir := t.TempDir()

	// A good journal to mutate per case.
	goodPath := filepath.Join(dir, "good.jsonl")
	j, err := CreateJournal(goodPath, "cafe", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	writeVariant := func(name, old, new string) string {
		p := filepath.Join(dir, name)
		if !strings.Contains(string(good), old) {
			t.Fatalf("journal header missing %q: %s", old, good)
		}
		mutated := strings.Replace(string(good), old, new, 1)
		if err := os.WriteFile(p, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// A good store to mis-open per case.
	storeDir := filepath.Join(dir, "results")
	st, err := store.Open(storeDir, store.Options{Fingerprint: 0xaaaa})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		attempt  func() error
		sentinel error
		// notSentinels: the other sentinels this error must NOT match,
		// proving the cases are distinct.
		notSentinels []error
		wantMsg      []string
	}{
		{
			name: "journal fingerprint mismatch",
			attempt: func() error {
				p := writeVariant("fp.jsonl", `"fingerprint":"cafe"`, `"fingerprint":"beef"`)
				_, err := ReadJournal(p, "cafe", 4)
				return err
			},
			sentinel:     ErrJournalFingerprint,
			notSentinels: []error{ErrJournalVersion, ErrJournalFormat, ErrJournalJobs},
			wantMsg:      []string{"beef", "cafe", "config, seed, or fault plan"},
		},
		{
			name: "journal version skew",
			attempt: func() error {
				p := writeVariant("ver.jsonl", `"version":2`, `"version":99`)
				_, err := ReadJournal(p, "cafe", 4)
				return err
			},
			sentinel:     ErrJournalVersion,
			notSentinels: []error{ErrJournalFingerprint, ErrJournalFormat, ErrJournalJobs},
			wantMsg:      []string{"version 99", "this build reads 2"},
		},
		{
			name: "journal job count mismatch",
			attempt: func() error {
				_, err := ReadJournal(goodPath, "cafe", 7)
				return err
			},
			sentinel:     ErrJournalJobs,
			notSentinels: []error{ErrJournalFingerprint, ErrJournalVersion, ErrJournalFormat},
			wantMsg:      []string{"4 jobs", "campaign has 7"},
		},
		{
			name: "not a journal",
			attempt: func() error {
				p := filepath.Join(dir, "noise.jsonl")
				if err := os.WriteFile(p, []byte("hello world\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := ReadJournal(p, "cafe", 4)
				return err
			},
			sentinel:     ErrJournalFormat,
			notSentinels: []error{ErrJournalFingerprint, ErrJournalVersion, ErrJournalJobs},
			wantMsg:      []string{"not a campaign journal"},
		},
		{
			name: "empty journal",
			attempt: func() error {
				p := filepath.Join(dir, "empty.jsonl")
				if err := os.WriteFile(p, nil, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := ReadJournal(p, "cafe", 4)
				return err
			},
			sentinel:     ErrJournalFormat,
			notSentinels: []error{ErrJournalFingerprint, ErrJournalVersion, ErrJournalJobs},
			wantMsg:      []string{"empty"},
		},
		{
			// ReadJournal reads "{}" as a clean record for job 0 with no
			// entry, report or metrics; resuming it would skip the job
			// and print an empty result.
			name: "journal record for another entry",
			attempt: func() error {
				specs := faultSpecs(t)
				p := filepath.Join(dir, "entry.jsonl")
				j, err := CreateJournal(p, CampaignFingerprint(specs, 42, testFaultPlan), len(specs))
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteString("{}\n"); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				_, err = RunCampaign(specs, CampaignOptions{Workers: 2, Seed: 42, Faults: testFaultPlan, ResumePath: p})
				return err
			},
			sentinel:     nil, // plain error, like every other bad record
			notSentinels: []error{ErrJournalFingerprint, ErrJournalVersion, ErrJournalFormat, ErrJournalJobs},
			wantMsg:      []string{"entry.jsonl", "job 0", `entry ""`, `"kmeans"`},
		},
		{
			name: "store fingerprint mismatch",
			attempt: func() error {
				_, err := store.Open(storeDir, store.Options{Fingerprint: 0xbbbb})
				return err
			},
			sentinel:     store.ErrFingerprint,
			notSentinels: []error{store.ErrVersion, store.ErrReadOnly},
			wantMsg:      []string{"000000000000aaaa", "000000000000bbbb", "fresh store directory"},
		},
		{
			name: "store read-only on missing directory",
			attempt: func() error {
				_, err := store.Open(filepath.Join(dir, "absent"), store.Options{Fingerprint: 0xaaaa, ReadOnly: true})
				return err
			},
			sentinel:     nil, // plain error: nothing to disambiguate from
			notSentinels: []error{store.ErrFingerprint, store.ErrVersion},
			wantMsg:      []string{"absent"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.attempt()
			if err == nil {
				t.Fatal("attempt succeeded, want refusal")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %q does not match its sentinel %q", err, tc.sentinel)
			}
			for _, not := range tc.notSentinels {
				if errors.Is(err, not) {
					t.Errorf("error %q also matches foreign sentinel %q - cases are not distinct", err, not)
				}
			}
			for _, want := range tc.wantMsg {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

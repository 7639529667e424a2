package harness

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// FuzzParseCampaign checks the decoder of mixpd's POST /campaigns bodies
// and of mixpbench -config files: it never panics, and every campaign it
// accepts carries finite, positive thresholds and finite fault and retry
// numbers, since a NaN or an infinity passes range checks and then
// reaches results and history archives that JSON cannot encode. The
// seed corpus under testdata/fuzz holds the five configs/*.yaml files
// and the non-finite threshold, slowdown, straggler-rate, and backoff
// documents the parser once accepted.
func FuzzParseCampaign(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseCampaign(src)
		if err != nil {
			return
		}
		for _, s := range c.Specs {
			if th := s.Analysis.Threshold; !(th > 0) || math.IsInf(th, 1) {
				t.Errorf("entry %q: accepted threshold %g", s.Name, th)
			}
		}
		for name, v := range map[string]float64{
			"transient":      c.Faults.Transient,
			"crash":          c.Faults.Crash,
			"straggler":      c.Faults.Straggler,
			"slowdown":       c.Faults.Slowdown,
			"backoff_base":   c.Retry.BaseSeconds,
			"backoff_factor": c.Retry.Factor,
			"backoff_cap":    c.Retry.MaxSeconds,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("accepted %s %g", name, v)
			}
		}
	})
}

// FuzzReadJournal checks the -resume decoder over arbitrary record bytes
// after a valid header: it never panics, every record it accepts is a
// clean record for a job of the campaign whose configuration key parses,
// and the accepted records, journalled again with CreateJournal and
// Append, read back as the same records. Records are compared by their
// JSON encodings, because NaN metrics never compare equal. The seed
// corpus under testdata/fuzz holds clean, torn, corrupt, out-of-range,
// failed-then-clean, NaN-speedup, and telemetry-carrying records, and a
// found record whose configuration key does not parse, which ReadJournal
// once resumed as a result with no configuration.
func FuzzReadJournal(f *testing.F) {
	const fingerprint, jobs = "0123456789abcdef", 3
	header, err := json.Marshal(journalHeader{
		Journal: journalMagic, Version: journalVersion, Fingerprint: fingerprint, Jobs: jobs,
	})
	if err != nil {
		f.Fatal(err)
	}
	header = append(header, '\n')
	f.Fuzz(func(t *testing.T, records []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaign.jsonl")
		if err := os.WriteFile(path, append(header[:len(header):len(header)], records...), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJournal(path, fingerprint, jobs)
		if err != nil {
			return
		}
		for job, rec := range recs {
			if job < 0 || job >= jobs || rec.Job != job {
				t.Errorf("accepted record for job %d under key %d in a campaign of %d jobs", rec.Job, job, jobs)
			}
			if rec.Error != "" {
				t.Errorf("job %d: accepted failed record %q", job, rec.Error)
			}
			if _, err := bench.ParseKey(rec.Report.Config); err != nil {
				t.Errorf("job %d: accepted config key that does not parse: %v", job, err)
			}
		}
		again := filepath.Join(dir, "again.jsonl")
		j, err := CreateJournal(again, fingerprint, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < jobs; job++ {
			if rec, ok := recs[job]; ok {
				j.Append(rec)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatalf("re-journalling accepted records: %v", err)
		}
		back, err := ReadJournal(again, fingerprint, jobs)
		if err != nil {
			t.Fatalf("re-journalled records do not read back: %v", err)
		}
		want, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("records changed on a write and read:\n--- read ---\n%s\n--- re-read ---\n%s", want, got)
		}
	})
}

package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"sync"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The checkpoint journal is a JSONL file: a header line identifying the
// campaign, then one fsync'd record per completed job, appended as jobs
// finish (so record order follows completion, not submission - readers
// key by job index). A campaign killed mid-flight leaves a journal whose
// records are exactly the jobs that completed; resuming from it re-runs
// only the rest and merges the recorded telemetry as if the interruption
// never happened.

// journalMagic identifies a journal header line.
const journalMagic = "mixpbench-campaign"

// journalVersion is bumped on incompatible record changes. Version 2
// added per-phase accounting (build/run seconds, evaluation and memo-hit
// counts) to reports and attempts so traces rebuild identically on
// resume.
const journalVersion = 2

// journalHeader is the journal's first line.
type journalHeader struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
	// Fingerprint ties the journal to one campaign definition; resuming
	// under a different config, seed, or fault plan is refused rather
	// than silently mixing incompatible results.
	Fingerprint string `json:"fingerprint"`
	// Jobs is the campaign's job count.
	Jobs int `json:"jobs"`
}

// JournalRecord is one completed job: its report, attempt history, and
// the job's private telemetry (metrics snapshot plus event buffer), which
// resume folds back into the campaign stream.
type JournalRecord struct {
	// Job is the job's index in campaign submission order.
	Job      int       `json:"job"`
	Entry    string    `json:"entry"`
	Error    string    `json:"error,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Attempts []Attempt `json:"attempts,omitempty"`
	// Report is the job's report in a JSON-safe form (NaN metrics encode
	// as strings, the precision config as its digit key).
	Report journalReport `json:"report"`
	// Metrics is the job's private registry snapshot.
	Metrics telemetry.Snapshot `json:"metrics,omitempty"`
	// Events is the job's private event buffer (non-finite floats
	// stringified, as in the JSONL event sink).
	Events []telemetry.Event `json:"events,omitempty"`
}

// jfloat is a float64 whose JSON form survives NaN and infinities by
// falling back to Prometheus-style strings ("NaN", "+Inf", "-Inf").
type jfloat float64

// MarshalJSON encodes finite values as numbers, the rest as strings.
func (f jfloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return json.Marshal(formatNonFinite(v))
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts either encoding.
func (f *jfloat) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = jfloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("harness: journal float %s: %w", b, err)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("harness: journal float %q: %w", s, err)
	}
	*f = jfloat(v)
	return nil
}

// formatNonFinite matches the telemetry exposition's spelling of
// non-finite values.
func formatNonFinite(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return "NaN"
}

// journalReport is Report in JSON-safe clothing.
type journalReport struct {
	Benchmark    string  `json:"benchmark"`
	Algorithm    string  `json:"algorithm"`
	Threshold    float64 `json:"threshold"`
	Evaluated    int     `json:"evaluated"`
	SpentSeconds float64 `json:"spent_seconds"`
	BuildSeconds float64 `json:"build_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
	CacheHits    int     `json:"cache_hits,omitempty"`
	Speedup      jfloat  `json:"speedup"`
	Quality      jfloat  `json:"quality"`
	Found        bool    `json:"found"`
	TimedOut     bool    `json:"timed_out"`
	Canceled     bool    `json:"canceled,omitempty"`
	Demoted      int     `json:"demoted"`
	Energy       jfloat  `json:"energy,omitempty"`
	Precisions   string  `json:"precisions,omitempty"`
	Objective    string  `json:"objective,omitempty"`
	// Front is the Pareto front under the pareto objective; its points
	// never carry non-finite values (NaN-error points are excluded at
	// recording time), so plain floats are JSON-safe.
	Front []search.ParetoPoint `json:"front,omitempty"`
	// Config is the precision assignment as its key (one symbol per
	// variable; "" when the analysis converged to nothing).
	Config    string `json:"config,omitempty"`
	Clusters  int    `json:"clusters"`
	Variables int    `json:"variables"`
}

// toJournalReport converts a Report for journalling.
func toJournalReport(r Report) journalReport {
	j := journalReport{
		Benchmark:    r.Benchmark,
		Algorithm:    r.Algorithm,
		Threshold:    r.Threshold,
		Evaluated:    r.Evaluated,
		SpentSeconds: r.SpentSeconds,
		BuildSeconds: r.BuildSeconds,
		RunSeconds:   r.RunSeconds,
		CacheHits:    r.CacheHits,
		Speedup:      jfloat(r.Speedup),
		Quality:      jfloat(r.Quality),
		Found:        r.Found,
		TimedOut:     r.TimedOut,
		Canceled:     r.Canceled,
		Demoted:      r.Demoted,
		Energy:       jfloat(r.Energy),
		Precisions:   r.Precisions,
		Front:        r.Front,
		Clusters:     r.Clusters,
		Variables:    r.Variables,
	}
	// The default threshold objective stays off the wire, so default
	// campaigns journal exactly the historical record shape.
	if r.Objective != "" && r.Objective != "threshold" {
		j.Objective = r.Objective
	}
	if r.Config != nil {
		j.Config = r.Config.Key()
	}
	return j
}

// report converts back; the precision config is rebuilt from its key,
// which ReadJournal has checked parses.
func (j journalReport) report() Report {
	r := Report{
		Benchmark:    j.Benchmark,
		Algorithm:    j.Algorithm,
		Threshold:    j.Threshold,
		Evaluated:    j.Evaluated,
		SpentSeconds: j.SpentSeconds,
		BuildSeconds: j.BuildSeconds,
		RunSeconds:   j.RunSeconds,
		CacheHits:    j.CacheHits,
		Speedup:      float64(j.Speedup),
		Quality:      float64(j.Quality),
		Found:        j.Found,
		TimedOut:     j.TimedOut,
		Canceled:     j.Canceled,
		Demoted:      j.Demoted,
		Energy:       float64(j.Energy),
		Precisions:   j.Precisions,
		Objective:    j.Objective,
		Front:        j.Front,
		Clusters:     j.Clusters,
		Variables:    j.Variables,
	}
	if r.Objective == "" {
		r.Objective = "threshold"
	}
	r.Config, _ = bench.ParseKey(j.Config)
	return r
}

// ResultRecord converts one job result into its JSON-safe journal form
// (telemetry excluded): the shape the checkpoint journal writes and the
// campaign service serves over HTTP. entry names the configuration entry
// the job came from.
func ResultRecord(jr JobResult, entry string) JournalRecord {
	rec := JournalRecord{
		Job:      jr.Index,
		Entry:    entry,
		Degraded: jr.Degraded,
		Attempts: jr.Attempts,
		Report:   toJournalReport(jr.Report),
	}
	if jr.Err != nil {
		rec.Error = jr.Err.Error()
	}
	return rec
}

// result rebuilds the scheduler result a resumed record stands in for.
func (rec JournalRecord) result(idx int) JobResult {
	jr := JobResult{
		Index:    idx,
		Report:   rec.Report.report(),
		Attempts: rec.Attempts,
		Degraded: rec.Degraded,
	}
	if rec.Error != "" {
		jr.Err = errors.New(rec.Error)
	}
	return jr
}

// CampaignFingerprint identifies a campaign definition: the specs that
// shape its jobs, the workload seed, and the fault plan. Resume refuses a
// journal whose fingerprint differs, since its records would describe
// different work.
func CampaignFingerprint(specs []Spec, seed int64, plan faults.Plan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d|transient=%g|crash=%g|straggler=%g|slowdown=%g|window=%d|fseed=%d",
		seed, plan.Transient, plan.Crash, plan.Straggler, plan.Slowdown, plan.Window, plan.Seed)
	for _, s := range specs {
		fmt.Fprintf(h, "|%s|%s|%s|%g", s.Name, s.Bin, s.Analysis.Algorithm, s.Analysis.Threshold)
		// Non-default ladders and objectives change the work a journal's
		// records describe, so they join the fingerprint; default specs
		// hash exactly the historical bytes and old journals stay
		// resumable.
		if s.Analysis.Precisions != nil {
			fmt.Fprintf(h, "|precisions=%s", s.Analysis.Precisions)
		}
		if s.Analysis.Objective != search.ObjectiveThreshold {
			fmt.Fprintf(h, "|objective=%s", s.Analysis.Objective)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Journal appends completed-job records to a checkpoint file, fsyncing
// each one so a killed campaign loses at most the in-flight jobs. Safe
// for concurrent Append from scheduler workers. Write errors are held and
// surfaced by Close, keeping the hot path non-fatal: a full disk degrades
// checkpointing, not the campaign.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// CreateJournal starts a fresh journal at path (truncating any previous
// one) with a fingerprint header for jobs jobs. The parent directory is
// fsync'd after the create - the same discipline the result store uses -
// so a journal created moments before a crash is guaranteed to have a
// directory entry; without it, the first fsync'd records could belong to
// a file that vanishes with the power.
func CreateJournal(path, fingerprint string, jobs int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: create journal: %w", err)
	}
	if err := store.SyncParentDir(path); err != nil {
		f.Close()
		return nil, fmt.Errorf("harness: sync journal directory: %w", err)
	}
	j := &Journal{f: f}
	if err := j.writeLocked(journalHeader{
		Journal: journalMagic, Version: journalVersion, Fingerprint: fingerprint, Jobs: jobs,
	}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// AppendJournal reopens an existing journal for appending, after checking
// its header matches the campaign. This is the checkpoint==resume path: an
// interrupted campaign keeps extending the same file.
func AppendJournal(path, fingerprint string, jobs int) (*Journal, error) {
	if err := checkJournalHeader(path, fingerprint, jobs); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: append journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append journals one record.
func (j *Journal) Append(rec JournalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.writeLocked(rec)
}

// writeLocked marshals v as one line and fsyncs. Callers hold j.mu or
// own j exclusively.
func (j *Journal) writeLocked(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: journal encode: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("harness: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("harness: journal sync: %w", err)
	}
	return nil
}

// Close closes the file and reports the first error the journal swallowed.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cerr := j.f.Close()
	if j.err != nil {
		return j.err
	}
	return cerr
}

// Sentinel errors for resume failures, for errors.Is. Each names a
// distinct, actionable condition; the wrapped message says which file,
// which values clashed, and what to do about it.
var (
	// ErrJournalFormat reports a file that is not a campaign journal at
	// all (wrong magic, unparsable or empty header).
	ErrJournalFormat = errors.New("harness: not a campaign journal")
	// ErrJournalVersion reports a journal written by an incompatible
	// version of this tool.
	ErrJournalVersion = errors.New("harness: incompatible journal version")
	// ErrJournalFingerprint reports a journal recorded for a different
	// campaign definition (config, seed, or fault plan changed).
	ErrJournalFingerprint = errors.New("harness: journal fingerprint mismatch")
	// ErrJournalJobs reports a journal recorded for a different job count.
	ErrJournalJobs = errors.New("harness: journal job count mismatch")
)

// checkJournalHeader validates path's header line against the campaign.
func checkJournalHeader(path, fingerprint string, jobs int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("harness: open journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return fmt.Errorf("%w: %s is empty", ErrJournalFormat, path)
	}
	var h journalHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return fmt.Errorf("%w: %s: bad header: %v", ErrJournalFormat, path, err)
	}
	switch {
	case h.Journal != journalMagic:
		return fmt.Errorf("%w: %s", ErrJournalFormat, path)
	case h.Version != journalVersion:
		return fmt.Errorf("%w: %s is version %d, this build reads %d; re-run the campaign or resume with the build that wrote it",
			ErrJournalVersion, path, h.Version, journalVersion)
	case h.Fingerprint != fingerprint:
		return fmt.Errorf("%w: %s was recorded under %s, this campaign is %s; the config, seed, or fault plan changed - resume with the original definition or start fresh",
			ErrJournalFingerprint, path, h.Fingerprint, fingerprint)
	case h.Jobs != jobs:
		return fmt.Errorf("%w: %s has %d jobs, campaign has %d", ErrJournalJobs, path, h.Jobs, jobs)
	}
	return nil
}

// ReadJournal loads the completed-job records of a checkpoint journal,
// keyed by job index. Only cleanly completed jobs (no error) are
// returned: failed and degraded jobs are re-run on resume, which - faults
// being a pure function of (seed, job, attempt) - reproduces their
// recorded outcome if nothing changed. A torn final line (the campaign
// was killed mid-append, before the fsync completed) is ignored; garbage
// anywhere else, a record for a job outside the campaign, and a record
// whose configuration key does not parse are errors. ReadJournal does not
// know the campaign's entries: checking that each record's Entry names
// its job's spec is the caller's job (RunCampaignContext does).
func ReadJournal(path, fingerprint string, jobs int) (map[int]JournalRecord, error) {
	if err := checkJournalHeader(path, fingerprint, jobs); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	sc.Scan() // header, validated above

	recs := make(map[int]JournalRecord)
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			// The bad line was not the last one: real corruption.
			return nil, pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("harness: journal %s: bad record: %w", path, err)
			continue
		}
		if rec.Job < 0 || rec.Job >= jobs {
			return nil, fmt.Errorf("harness: journal %s: record for job %d outside campaign of %d jobs",
				path, rec.Job, jobs)
		}
		// A complete line is not a torn append, so a key that does not
		// parse is corruption; resuming it would report a found result
		// with no configuration.
		if _, err := bench.ParseKey(rec.Report.Config); err != nil {
			return nil, fmt.Errorf("harness: journal %s: record for job %d: %w", path, rec.Job, err)
		}
		if rec.Error != "" {
			delete(recs, rec.Job) // re-run failed jobs; a later clean record may still win
			continue
		}
		recs[rec.Job] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("harness: read journal: %w", err)
	}
	return recs, nil
}

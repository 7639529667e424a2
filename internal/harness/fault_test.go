package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/mp"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// faultSpecs builds a three-entry campaign over distinct algorithms.
// Under the canonical test fault plan (seed 3, transient 0.5, window 1)
// the injector's draws give each entry a different fate: DD dies once
// and succeeds on retry, GP runs clean, HR dies on all three attempts
// and degrades.
func faultSpecs(t *testing.T) []Spec {
	t.Helper()
	specs, err := ParseConfig(kmeansYAML)
	if err != nil {
		t.Fatal(err)
	}
	var out []Spec
	for _, algo := range []string{"DD", "GP", "HR"} {
		s := specs[0]
		s.Analysis.Algorithm = algo
		out = append(out, s)
	}
	return out
}

// testFaultPlan is the canonical deterministic plan the fault tests
// share (see faultSpecs for the fates it deals out).
var testFaultPlan = faults.Plan{Seed: 3, Transient: 0.5, Window: 1}

func TestCampaignRetryAndDegradation(t *testing.T) {
	results, err := RunCampaign(faultSpecs(t), CampaignOptions{
		Workers: 2, Seed: 42, Faults: testFaultPlan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}

	// DD: transient fault on attempt 1, clean on attempt 2.
	dd := results[0]
	if dd.Err != nil || dd.Degraded {
		t.Fatalf("DD job should recover via retry, got err=%v degraded=%v", dd.Err, dd.Degraded)
	}
	if len(dd.Attempts) != 2 {
		t.Fatalf("DD attempts = %d, want 2: %+v", len(dd.Attempts), dd.Attempts)
	}
	if a := dd.Attempts[0]; a.Fault != "transient" || a.Err == "" || a.BackoffSeconds != 30 {
		t.Errorf("DD attempt 1 = %+v, want transient fault with 30s backoff", a)
	}
	if a := dd.Attempts[1]; a.Fault != "" || a.Err != "" || a.BackoffSeconds != 0 {
		t.Errorf("DD attempt 2 = %+v, want clean final attempt", a)
	}
	if !dd.Report.Found {
		t.Error("DD report lost its result to the retry machinery")
	}
	// Lost work and backoff are charged to the simulated clock.
	wantTotal := dd.Attempts[0].SpentSeconds + 30 + dd.Attempts[1].SpentSeconds
	if got := dd.TotalSeconds(); got != wantTotal {
		t.Errorf("DD TotalSeconds = %g, want %g", got, wantTotal)
	}
	if dd.Report.SpentSeconds != dd.Attempts[1].SpentSeconds {
		t.Errorf("DD Report.SpentSeconds = %g, want the final attempt's %g",
			dd.Report.SpentSeconds, dd.Attempts[1].SpentSeconds)
	}

	// GP: untouched.
	gp := results[1]
	if gp.Err != nil || len(gp.Attempts) != 1 || gp.Attempts[0].Fault != "" {
		t.Errorf("GP job should run clean: err=%v attempts=%+v", gp.Err, gp.Attempts)
	}

	// HR: transient on every attempt, degrades after the retry budget.
	hr := results[2]
	if !hr.Degraded {
		t.Fatalf("HR job should degrade, got %+v", hr)
	}
	if len(hr.Attempts) != 3 {
		t.Fatalf("HR attempts = %d, want 3 (DefaultRetryPolicy)", len(hr.Attempts))
	}
	if hr.Err == nil || !strings.Contains(hr.Err.Error(), "degraded after 3 attempts") {
		t.Errorf("HR error = %v, want structured degradation error", hr.Err)
	}
	if !errors.Is(hr.Err, search.ErrTransient) {
		t.Errorf("HR error should wrap the transient cause: %v", hr.Err)
	}
	if b1, b2, b3 := hr.Attempts[0].BackoffSeconds, hr.Attempts[1].BackoffSeconds, hr.Attempts[2].BackoffSeconds; b1 != 30 || b2 != 60 || b3 != 0 {
		t.Errorf("HR backoffs = %g, %g, %g, want exponential 30, 60, 0", b1, b2, b3)
	}
}

// TestCampaignFaultMetricsWorkerInvariant is the acceptance check for
// fault-tolerant determinism: a campaign with injected faults, retries,
// and a degraded job produces byte-identical metric snapshots for any
// worker count.
func TestCampaignFaultMetricsWorkerInvariant(t *testing.T) {
	run := func(workers int) string {
		tel := telemetry.New(telemetry.NewMemorySink())
		if _, err := RunCampaign(faultSpecs(t), CampaignOptions{
			Workers: workers, Seed: 42, Faults: testFaultPlan, Telemetry: tel,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tel.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := run(1)
	eight := run(8)
	if one != eight {
		t.Errorf("fault-campaign snapshots differ between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", one, eight)
	}
	for _, frag := range []string{
		// DD's one retry plus HR's two.
		"mixpbench_harness_retries_total 3",
		// Every transient fault that actually struck: 1 (DD) + 3 (HR).
		`mixpbench_harness_faults_injected_total{kind="transient"} 4`,
		"mixpbench_harness_degraded_jobs 1",
		"mixpbench_harness_job_errors_total 1",
	} {
		if !strings.Contains(one, frag) {
			t.Errorf("snapshot missing %q:\n%s", frag, one)
		}
	}
}

func TestStragglerInflatesSimulatedTime(t *testing.T) {
	specs := faultSpecs(t)[:1]
	clean, err := RunCampaign(specs, CampaignOptions{Workers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunCampaign(specs, CampaignOptions{
		Workers: 1, Seed: 42,
		Faults: faults.Plan{Seed: 1, Straggler: 1, Slowdown: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a := slow[0].Attempts[0]; a.Fault != "straggler" {
		t.Fatalf("attempt = %+v, want straggler fault", a)
	}
	want := clean[0].Report.SpentSeconds * 3
	if got := slow[0].Report.SpentSeconds; math.Abs(got-want) > 1e-9 {
		t.Errorf("straggler SpentSeconds = %g, want 3x the clean run's (%g)", got, want)
	}
	if slow[0].Err != nil || !slow[0].Report.Found {
		t.Errorf("straggler must slow the job, not break it: %+v", slow[0])
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, "cafe", 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := JournalRecord{
		Job:   2,
		Entry: "kmeans",
		Attempts: []Attempt{
			{Attempt: 1, Fault: "transient", Err: "boom", SpentSeconds: 5, BackoffSeconds: 30},
			{Attempt: 2, SpentSeconds: 7},
		},
		Report: toJournalReport(Report{
			Benchmark: "K-means", Algorithm: "DD", Threshold: 1e-3,
			Evaluated: 9, SpentSeconds: 7,
			Speedup: math.NaN(), Quality: math.NaN(), TimedOut: true,
			Clusters: 3, Variables: 5,
		}),
		Events: telemetry.FiniteEvents([]telemetry.Event{
			{Seq: 1, Name: "evaluation", Fields: map[string]any{"speedup": math.NaN(), "n": 1}},
		}),
	}
	j.Append(rec)
	// A failed record for job 0: must be skipped on read so the job
	// re-runs.
	j.Append(JournalRecord{Job: 0, Entry: "bad", Error: "exploded"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJournal(path, "cafe", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %v, want only job 2", recs)
	}
	got, ok := recs[2]
	if !ok {
		t.Fatal("job 2 missing from journal read")
	}
	if fmt.Sprintf("%+v", got.Attempts) != fmt.Sprintf("%+v", rec.Attempts) {
		t.Errorf("attempts changed across round trip:\n%+v\n%+v", got.Attempts, rec.Attempts)
	}
	r := got.Report.report()
	if !math.IsNaN(r.Speedup) || !math.IsNaN(r.Quality) {
		t.Errorf("NaN metrics lost in round trip: %+v", r)
	}
	if r.Benchmark != "K-means" || r.Evaluated != 9 || !r.TimedOut {
		t.Errorf("report fields lost: %+v", r)
	}

	// Wrong fingerprint, wrong job count: refused.
	if _, err := ReadJournal(path, "beef", 4); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("mismatched fingerprint accepted: %v", err)
	}
	if _, err := ReadJournal(path, "cafe", 9); err == nil {
		t.Error("mismatched job count accepted")
	}

	// A torn final line (killed mid-append) is tolerated...
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, raw...), []byte(`{"job":1,"entry":"tr`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err = ReadJournal(path, "cafe", 4); err != nil || len(recs) != 1 {
		t.Errorf("torn final line not tolerated: %v, %v", recs, err)
	}
	// ...but garbage in the middle is corruption.
	if err := os.WriteFile(path, append(torn, []byte("\n{\"job\":3,\"entry\":\"x\",\"report\":{}}\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path, "cafe", 4); err == nil {
		t.Error("mid-file garbage accepted")
	}
}

func TestConfigRoundTripsThroughJournalReport(t *testing.T) {
	cfg := bench.NewConfig(5)
	cfg[1], cfg[3], cfg[4] = mp.F32, mp.F32, mp.F16
	back := toJournalReport(Report{Benchmark: "b", Found: true, Config: cfg}).report()
	if back.Config.Key() != cfg.Key() {
		t.Errorf("config key round trip = %q, want %q", back.Config.Key(), cfg.Key())
	}
	if got := toJournalReport(Report{}).report(); got.Config != nil {
		t.Errorf("nil config grew a value: %v", got.Config)
	}
}

// TestCampaignCheckpointResume is the acceptance check for
// checkpoint/resume: a campaign killed after its first completed job
// and resumed from the journal must produce the same per-job results
// and a byte-identical metrics snapshot as an uninterrupted run.
func TestCampaignCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	specs := faultSpecs(t)
	full := filepath.Join(dir, "full.jsonl")

	run := func(opts CampaignOptions) ([]JobResult, string) {
		t.Helper()
		tel := telemetry.New(telemetry.NewMemorySink())
		opts.Telemetry = tel
		opts.Seed = 42
		opts.Faults = testFaultPlan
		results, err := RunCampaign(specs, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tel.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return results, buf.String()
	}

	wantResults, wantMetrics := run(CampaignOptions{Workers: 2, CheckpointPath: full})

	// Simulate the kill: keep the header and the first completed job's
	// record, drop the rest - exactly what a campaign killed mid-flight
	// leaves behind (plus, possibly, a torn line, covered elsewhere).
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want header + 3 records", len(lines))
	}
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	if err := os.WriteFile(interrupted, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume, extending the interrupted journal in place.
	gotResults, gotMetrics := run(CampaignOptions{
		Workers: 2, ResumePath: interrupted, CheckpointPath: interrupted,
	})

	if got, want := fmt.Sprintf("%+v", gotResults), fmt.Sprintf("%+v", wantResults); got != want {
		t.Errorf("resumed results differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
	if gotMetrics != wantMetrics {
		t.Errorf("resumed metrics differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", gotMetrics, wantMetrics)
	}

	// The extended journal alone must now be able to restart the whole
	// campaign (every successful job recorded; the degraded one re-runs).
	fp := CampaignFingerprint(specs, 42, testFaultPlan)
	recs, err := ReadJournal(interrupted, fp, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("extended journal has %d clean records, want 2 (degraded job re-runs)", len(recs))
	}

	// Resuming under a different campaign definition is refused.
	if _, err := RunCampaign(specs, CampaignOptions{
		Workers: 2, Seed: 7, Faults: testFaultPlan, ResumePath: interrupted,
	}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("resume with a different seed accepted: %v", err)
	}
}

// TestSchedulerPanicRecoveryWithTelemetry exercises the panic-recovery
// path with a live recorder attached (run under -race by make verify):
// the panicking job must surface as a structured error in both the
// results and the telemetry, without poisoning the other jobs or the
// merge.
func TestSchedulerPanicRecoveryWithTelemetry(t *testing.T) {
	RegisterAnalysis(panicTelemetryAnalysis{})
	specs, err := ParseConfig(kmeansYAML)
	if err != nil {
		t.Fatal(err)
	}
	bad := specs[0]
	bad.Analysis.Name = "panic-telemetry-test"
	mem := telemetry.NewMemorySink()
	tel := telemetry.New(mem)
	jobs, err := JobsFromSpecs([]Spec{specs[0], bad, specs[0]}, 42)
	if err != nil {
		t.Fatal(err)
	}
	results := Scheduler{Workers: 3, Telemetry: tel}.Run(jobs)
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panicking job error = %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || !results[i].Report.Found {
			t.Errorf("healthy job %d corrupted: %+v", i, results[i])
		}
	}
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mixpbench_harness_job_errors_total 1") {
		t.Errorf("panic not counted in metrics:\n%s", buf.String())
	}
	var sawError bool
	for _, e := range mem.Events() {
		if e.Name == "job_end" && e.Fields["job"] == 1 {
			_, sawError = e.Fields["error"]
		}
	}
	if !sawError {
		t.Error("job_end event for the panicking job carries no error field")
	}
}

// panicTelemetryAnalysis emits telemetry, then panics, so the recovery
// path runs with a partially used private recorder.
type panicTelemetryAnalysis struct{}

func (panicTelemetryAnalysis) Name() string { return "panic-telemetry-test" }
func (panicTelemetryAnalysis) Analyze(job Job) (Report, error) {
	if job.Telemetry != nil {
		job.Telemetry.Emit("pre_panic", map[string]any{"entry": job.Spec.Name})
	}
	panic("injected failure with telemetry attached")
}

func TestParseCampaignFaultsClause(t *testing.T) {
	src := kmeansYAML + `
faults:
  seed: 9
  transient: 0.25
  crash: 0.1
  straggler: 0.05
  slowdown: 2.5
  window: 8
  max_retries: 5
  backoff_base: 10
  backoff_factor: 3
  backoff_cap: 600
`
	c, err := ParseCampaign(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Specs) != 1 || c.Specs[0].Name != "kmeans" {
		t.Fatalf("specs = %+v", c.Specs)
	}
	wantPlan := faults.Plan{Seed: 9, Transient: 0.25, Crash: 0.1, Straggler: 0.05, Slowdown: 2.5, Window: 8}
	if c.Faults != wantPlan {
		t.Errorf("plan = %+v, want %+v", c.Faults, wantPlan)
	}
	wantRetry := RetryPolicy{MaxAttempts: 5, BaseSeconds: 10, Factor: 3, MaxSeconds: 600}
	if c.Retry != wantRetry {
		t.Errorf("retry = %+v, want %+v", c.Retry, wantRetry)
	}

	// ParseConfig accepts the clause but drops it.
	specs, err := ParseConfig(src)
	if err != nil || len(specs) != 1 {
		t.Errorf("ParseConfig with faults clause: %v, %d specs", err, len(specs))
	}

	for name, bad := range map[string]string{
		"unknown key":   kmeansYAML + "\nfaults:\n  flips: 0.5\n",
		"invalid rate":  kmeansYAML + "\nfaults:\n  transient: 1.5\n",
		"bad number":    kmeansYAML + "\nfaults:\n  transient: lots\n",
		"NaN straggler": kmeansYAML + "\nfaults:\n  straggler: nan\n",
		"inf slowdown":  kmeansYAML + "\nfaults:\n  straggler: 1\n  slowdown: inf\n",
		"NaN backoff":   kmeansYAML + "\nfaults:\n  backoff_base: nan\n",
	} {
		if _, err := ParseCampaign(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParseSpecRejectsNonPositiveThreshold(t *testing.T) {
	for bad, why := range map[string]string{
		"0": "positive", "-1e-3": "positive",
		"nan": "finite", "inf": "finite", "-inf": "finite",
	} {
		src := strings.Replace(kmeansYAML, "1e-3", bad, 1)
		if _, err := ParseConfig(src); err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("threshold %s accepted: %v", bad, err)
		}
	}
}

func TestJobsFromSpecsCollectsAllErrors(t *testing.T) {
	specs := faultSpecs(t)
	specs[0].Bin = "doom"
	specs[2].Bin = "quake"
	_, err := JobsFromSpecs(specs, 42)
	if err == nil {
		t.Fatal("unresolvable specs accepted")
	}
	for _, frag := range []string{"doom", "quake", `entry "kmeans"`} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("joined error missing %q: %v", frag, err)
		}
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{} // zero value normalizes to the default policy
	for attempt, want := range map[int]float64{1: 30, 2: 60, 3: 120, 10: 3600} {
		if got := p.Backoff(attempt); got != want {
			t.Errorf("Backoff(%d) = %g, want %g", attempt, got, want)
		}
	}
}

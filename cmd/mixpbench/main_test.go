package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	mixpbench "repro"
	"repro/internal/trace"
)

func TestListBenchmarks(t *testing.T) {
	var buf bytes.Buffer
	listBenchmarks(&buf)
	out := buf.String()
	for _, frag := range []string{"Kernels:", "Applications:", "hydro-1d", "LavaMD", "TV=195"} {
		if !strings.Contains(out, frag) {
			t.Errorf("listing missing %q", frag)
		}
	}
}

func TestExportSpaceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := exportSpaceJSON(&buf, "iccg"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"benchmark": "iccg"`) || !strings.Contains(out, `"clusters"`) {
		t.Errorf("space JSON malformed:\n%s", out)
	}
	if err := exportSpaceJSON(&buf, "nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestTuneOneWithEvalLog(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tuneOne(context.Background(), &buf, "hydro-1d", "DD", 1e-8, 0, true, "", "", nil, mixpbench.NewRunCache(nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"evaluation log:", "benchmark : hydro-1d", "speedup", "demoted"} {
		if !strings.Contains(out, frag) {
			t.Errorf("tune output missing %q:\n%s", frag, out)
		}
	}
	if _, err := tuneOne(context.Background(), &buf, "hydro-1d", "annealing", 1e-8, 0, false, "", "", nil, mixpbench.NewRunCache(nil)); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

// TestTuneOneRunCache checks -tune's run cache on a small search,
// K-means under GP at 1e-3 with the evaluation log: stdout and the
// -metrics snapshot match, byte for byte, what mixpbench printed before
// -tune had a cache (testdata/tune-kmeans-gp.*, written by that
// version's "-tune kmeans -algorithm GP -threshold 1e-3 -evallog
// -metrics"), and the cache executes fewer configurations than the
// search evaluates.
func TestTuneOneRunCache(t *testing.T) {
	wantOut, err := os.ReadFile(filepath.Join("testdata", "tune-kmeans-gp.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics, err := os.ReadFile(filepath.Join("testdata", "tune-kmeans-gp.metrics"))
	if err != nil {
		t.Fatal(err)
	}
	tel := mixpbench.NewTelemetry(nil)
	cache := mixpbench.NewRunCache(nil)
	var out, metrics bytes.Buffer
	if _, err := tuneOne(context.Background(), &out, "kmeans", "GP", 1e-3, 0, true, "", "", tel, cache); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), wantOut) {
		t.Errorf("stdout differs:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), wantOut)
	}
	if !bytes.Equal(metrics.Bytes(), wantMetrics) {
		t.Errorf("-metrics differs:\n--- got ---\n%s\n--- want ---\n%s", metrics.Bytes(), wantMetrics)
	}
	// Every configuration, the reference included, is one miss; the
	// read-set index answers shared ones without executing.
	st := cache.Stats()
	executed := st.Misses - cache.SharedExecutions()
	if evaluated := uint64(15); st.Misses != evaluated+1 || executed >= evaluated {
		t.Errorf("cache executed %d of %d lookups (%d shared), want fewer than the %d configurations evaluated",
			executed, st.Misses, cache.SharedExecutions(), evaluated)
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name      string
		workers   int
		threshold float64
		tune      string
		algorithm string
		wantErr   string
	}{
		{name: "negative workers", workers: -1, wantErr: "-workers"},
		{name: "negative threshold", threshold: -1e-8, wantErr: "-threshold"},
		{name: "NaN threshold", threshold: math.NaN(), wantErr: "-threshold"},
		{name: "infinite threshold", threshold: math.Inf(1), wantErr: "-threshold"},
		{name: "negative infinite threshold", threshold: math.Inf(-1), wantErr: "-threshold"},
		{name: "unknown algorithm", tune: "hydro-1d", algorithm: "annealing", wantErr: "-algorithm"},
		{name: "ok defaults", algorithm: "DD"},
		{name: "ok long name", tune: "hydro-1d", algorithm: "ddebug"},
		{name: "algorithm ignored without tune", algorithm: "annealing"},
	}
	for _, c := range cases {
		err := validateFlags("", c.threshold, c.tune, c.algorithm, campaignFlags{workers: c.workers})
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want mention of %s", c.name, err, c.wantErr)
		}
	}
}

func TestTuneOneEmitsTelemetry(t *testing.T) {
	var events bytes.Buffer
	sink := mixpbench.NewJSONLSink(&events)
	tel := mixpbench.NewTelemetry(sink)
	var out bytes.Buffer
	if _, err := tuneOne(context.Background(), &out, "hydro-1d", "DD", 1e-8, 0, false, "", "", tel, mixpbench.NewRunCache(nil)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var metrics bytes.Buffer
	if err := tel.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# TYPE mixpbench_search_evaluations_total counter",
		`mixpbench_search_evaluations_total{bench="hydro-1d"}`,
		"mixpbench_search_speedup_bucket",
		`mixpbench_bench_runs_total{bench="hydro-1d",kind="reference"} 1`,
		"mixpbench_search_budget_fraction",
	} {
		if !strings.Contains(metrics.String(), frag) {
			t.Errorf("metrics snapshot missing %q:\n%s", frag, metrics.String())
		}
	}

	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%d event lines, want at least search_start + evaluations", len(lines))
	}
	for i, line := range lines {
		var e mixpbench.TelemetryEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("event line %d invalid JSON: %v\n%s", i, err, line)
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("event line %d has seq %d", i, e.Seq)
		}
	}
	if !strings.Contains(lines[0], `"event":"search_start"`) {
		t.Errorf("first event is not search_start: %s", lines[0])
	}
}

func TestRunConfigTextAndJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.yaml")
	cfg := `
kmeans:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
        threshold: 1e-3
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans']
  args: ''
`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	failed, err := runConfig(context.Background(), &buf, path, campaignFlags{workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed entries: %v", failed)
	}
	if !strings.Contains(buf.String(), "kmeans [DD @ 1e-03]") {
		t.Errorf("text report malformed:\n%s", buf.String())
	}
	buf.Reset()
	if _, err := runConfig(context.Background(), &buf, path, campaignFlags{workers: 1, jsonOut: true}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"algorithm": "DD"`) {
		t.Errorf("JSON report malformed:\n%s", buf.String())
	}
	if _, err := runConfig(context.Background(), &buf, filepath.Join(dir, "missing.yaml"), campaignFlags{workers: 1}, nil); err == nil {
		t.Error("expected error for missing config file")
	}
}

// multiEntryYAML drives three analyses in one campaign, enough for the
// scheduler to actually interleave work when the pool has spare workers.
const multiEntryYAML = `
kmeans:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
        threshold: 1e-3
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans']
  args: ''

hydro:
  build_dir: 'hydro'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'greedy'
        threshold: 1e-8
  metric: 'MAE'
  bin: 'hydro-1d'
  copy: ['hydro']
  args: ''

iccg:
  build_dir: 'iccg'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'hierarchical'
        threshold: 1e-8
  metric: 'MAE'
  bin: 'iccg'
  copy: ['iccg']
  args: ''
`

// TestHarnessMetricsWorkerInvariant is the acceptance check of the
// telemetry determinism guarantee: the same seeded campaign produces
// byte-identical metric snapshots with -workers 1 and -workers 8.
func TestHarnessMetricsWorkerInvariant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.yaml")
	if err := os.WriteFile(path, []byte(multiEntryYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		tel := mixpbench.NewTelemetry(mixpbench.NewMemorySink())
		var out bytes.Buffer
		if _, err := runConfig(context.Background(), &out, path, campaignFlags{workers: workers, seed: 42}, tel); err != nil {
			t.Fatal(err)
		}
		var metrics bytes.Buffer
		if err := tel.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		return metrics.String()
	}
	one := run(1)
	eight := run(8)
	if one != eight {
		t.Errorf("metric snapshots differ between -workers 1 and -workers 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", one, eight)
	}
	for _, frag := range []string{
		"mixpbench_harness_jobs_total 3",
		"mixpbench_harness_jobs_completed_total 3",
		"mixpbench_harness_progress 1",
		`mixpbench_search_evaluations_total{bench="K-means"}`,
		`mixpbench_search_evaluations_total{bench="hydro-1d"}`,
	} {
		if !strings.Contains(one, frag) {
			t.Errorf("campaign snapshot missing %q:\n%s", frag, one)
		}
	}
}

// TestRunConfigReportsFailedEntries drives the campaign error contract:
// failing jobs do not abort the run, every entry still gets its report
// line, and the failed entries come back so main can exit non-zero.
func TestRunConfigReportsFailedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.yaml")
	if err := os.WriteFile(path, []byte(multiEntryYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// transient=1 with window=1 kills every attempt's first evaluation,
	// so all three entries degrade after the retry budget.
	failed, err := runConfig(context.Background(), &buf, path, campaignFlags{
		workers: 2, seed: 42, faultSpec: "transient=1,window=1,seed=1", retries: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 3 {
		t.Fatalf("failed = %v, want all three entries", failed)
	}
	out := buf.String()
	for _, frag := range []string{"kmeans", "hydro", "iccg", "DEGRADED after 2 attempts"} {
		if !strings.Contains(out, frag) {
			t.Errorf("campaign output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunConfigCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.yaml")
	if err := os.WriteFile(path, []byte(multiEntryYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "campaign.jsonl")
	var want bytes.Buffer
	if _, err := runConfig(context.Background(), &want, path, campaignFlags{workers: 2, seed: 42, checkpoint: journal}, nil); err != nil {
		t.Fatal(err)
	}
	// Keep the header and first record: the journal a killed campaign
	// leaves behind.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Without -metrics or -events the run records no telemetry, so no
	// record carries events, and metrics only as the empty snapshot
	// encoding/json always writes for a struct field.
	for i, line := range lines[1:] {
		if line == "" {
			continue
		}
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal record %d: %v", i+1, err)
		}
		if m, ok := rec["metrics"]; ok && string(m) != "{}" {
			t.Errorf("journal record %d carries metrics %s", i+1, m)
		}
		if _, ok := rec["events"]; ok {
			t.Errorf("journal record %d carries events", i+1)
		}
	}
	if err := os.WriteFile(journal, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := runConfig(context.Background(), &got, path, campaignFlags{workers: 2, seed: 42, checkpoint: journal, resume: journal}, nil); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("resumed reports differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got.String(), want.String())
	}
}

func TestValidateFlagsFaultTolerance(t *testing.T) {
	for name, cf := range map[string]campaignFlags{
		"faults without config":     {faultSpec: "transient=0.5"},
		"checkpoint without config": {checkpoint: "j.jsonl"},
		"resume without config":     {resume: "j.jsonl"},
		"retries without config":    {retries: 2},
	} {
		if err := validateFlags("", 0, "", "DD", cf); err == nil || !strings.Contains(err.Error(), "requires -config") {
			t.Errorf("%s: error = %v", name, err)
		}
	}
	if err := validateFlags("cfg.yaml", 0, "", "DD", campaignFlags{faultSpec: "transient=2"}); err == nil || !strings.Contains(err.Error(), "-faults") {
		t.Errorf("invalid fault spec accepted: %v", err)
	}
	if err := validateFlags("cfg.yaml", 0, "", "DD", campaignFlags{retries: -1}); err == nil || !strings.Contains(err.Error(), "-retries") {
		t.Errorf("negative retries accepted: %v", err)
	}
	if err := validateFlags("cfg.yaml", 0, "", "DD", campaignFlags{
		faultSpec: "transient=0.2,seed=7", retries: 2, checkpoint: "j.jsonl", resume: "j.jsonl",
	}); err != nil {
		t.Errorf("valid fault-tolerance flags rejected: %v", err)
	}
}

func TestOpenTelemetryWritesFiles(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	eventsPath := filepath.Join(dir, "events.jsonl")
	tel, closeTel, err := openTelemetry(metricsPath, eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := tuneOne(context.Background(), &out, "iccg", "GP", 1e-8, 0, false, "", "", tel, mixpbench.NewRunCache(nil)); err != nil {
		t.Fatal(err)
	}
	if err := closeTel(); err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "mixpbench_search_evaluations_total") {
		t.Errorf("metrics file malformed:\n%s", metrics)
	}
	events, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(events)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("events line %d is not valid JSON: %s", i, line)
		}
	}
}

func TestValidateFlagsTimeout(t *testing.T) {
	// Past the largest time.Duration (about 9.2e9 s) the conversion in
	// deadlineContext overflows to a negative, already-expired deadline.
	for _, timeout := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 9.3e9} {
		err := validateFlags("", 0, "", "DD", campaignFlags{timeout: timeout})
		if err == nil || !strings.Contains(err.Error(), "-timeout") {
			t.Errorf("timeout %g: error = %v, want mention of -timeout", timeout, err)
		}
	}
	for _, timeout := range []float64{2.5, 9.2e9} {
		if err := validateFlags("", 0, "", "DD", campaignFlags{timeout: timeout}); err != nil {
			t.Errorf("timeout %g rejected: %v", timeout, err)
		}
	}
}

// TestRunConfigExpiredDeadline runs a campaign under an already-expired
// context: every entry must come back failed as canceled or skipped
// (never silently succeeded), which is what main turns into exit code 4.
func TestRunConfigExpiredDeadline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.yaml")
	cfg := `
kmeans:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
        threshold: 1e-3
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans']
  args: ''
`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	failed, err := runConfig(ctx, &buf, path, campaignFlags{workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 {
		t.Fatalf("failed entries = %v, want the single entry", failed)
	}
	out := buf.String()
	if !strings.Contains(out, "SKIPPED") && !strings.Contains(out, "CANCELED") {
		t.Errorf("report does not surface the expired deadline:\n%s", out)
	}
}

// TestValidateFlagsTraceOutputs drives the shared export-path
// validation: -trace/-profile need -config, explicitly empty paths are
// rejected, and two flags may not clobber one file.
func TestValidateFlagsTraceOutputs(t *testing.T) {
	cases := []struct {
		name    string
		config  string
		cf      campaignFlags
		wantErr string
	}{
		{
			name:    "trace without config",
			cf:      campaignFlags{tracePath: "t.json", outputs: map[string]string{"-trace": "t.json"}},
			wantErr: "-trace requires -config",
		},
		{
			name:    "profile without config",
			cf:      campaignFlags{profilePath: "p.json", outputs: map[string]string{"-profile": "p.json"}},
			wantErr: "-profile requires -config",
		},
		{
			name:    "explicit empty trace path",
			config:  "cfg.yaml",
			cf:      campaignFlags{outputs: map[string]string{"-trace": ""}},
			wantErr: "must not be empty",
		},
		{
			name:   "duplicate output path",
			config: "cfg.yaml",
			cf: campaignFlags{
				tracePath: "out.json", profilePath: "out.json",
				outputs: map[string]string{"-trace": "out.json", "-profile": "out.json"},
			},
			wantErr: "duplicate output path",
		},
		{
			name:   "distinct paths ok",
			config: "cfg.yaml",
			cf: campaignFlags{
				tracePath: "t.json", profilePath: "p.json",
				outputs: map[string]string{"-trace": "t.json", "-profile": "p.json"},
			},
		},
	}
	for _, c := range cases {
		err := validateFlags(c.config, 0, "", "DD", c.cf)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
}

// TestRunConfigTraceExports runs a campaign with -trace/-profile paths
// (one in a directory that does not exist yet) and checks the artifacts:
// the trace validates against the Chrome trace_event schema, the profile
// phases sum to its total, and the bytes do not depend on -workers.
func TestRunConfigTraceExports(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.yaml")
	if err := os.WriteFile(path, []byte(multiEntryYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	export := func(workers int, tag string) (traceBytes, profileBytes []byte) {
		cf := campaignFlags{
			workers:     workers,
			seed:        42,
			tracePath:   filepath.Join(dir, tag, "nested", "trace.json"),
			profilePath: filepath.Join(dir, tag, "profile.json"),
		}
		var out bytes.Buffer
		if _, err := runConfig(context.Background(), &out, path, cf, nil); err != nil {
			t.Fatal(err)
		}
		tb, err := os.ReadFile(cf.tracePath)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(cf.profilePath)
		if err != nil {
			t.Fatal(err)
		}
		return tb, pb
	}
	trace1, prof1 := export(1, "w1")
	trace4, prof4 := export(4, "w4")
	if !bytes.Equal(trace1, trace4) {
		t.Error("trace bytes differ between -workers 1 and -workers 4")
	}
	if !bytes.Equal(prof1, prof4) {
		t.Error("profile bytes differ between -workers 1 and -workers 4")
	}
	if err := trace.ValidateChrome(bytes.NewReader(trace1)); err != nil {
		t.Errorf("exported trace does not validate: %v", err)
	}
	var p trace.Profile
	if err := json.Unmarshal(prof1, &p); err != nil {
		t.Fatalf("profile JSON malformed: %v", err)
	}
	if p.Campaign != "campaign" {
		t.Errorf("campaign name %q, want config base name", p.Campaign)
	}
	var sum float64
	for _, ph := range p.Phases {
		sum += ph.Seconds
	}
	if sum != p.TotalSeconds || p.TotalSeconds <= 0 {
		t.Errorf("profile phases sum %v, total %v", sum, p.TotalSeconds)
	}
}

// TestCLIExitCodes re-execs the test binary into main() to lock the
// command's exit-code contract for the export flags: misuse exits 1
// with a clear message, a good invocation exits 0 and leaves validating
// artifacts behind.
func TestCLIExitCodes(t *testing.T) {
	if os.Getenv("MIXPBENCH_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("mixpbench", flag.ExitOnError)
		os.Args = append([]string{"mixpbench"},
			strings.Split(os.Getenv("MIXPBENCH_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	cfg := filepath.Join(dir, "cfg.yaml")
	if err := os.WriteFile(cfg, []byte(multiEntryYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	runMain := func(args ...string) (int, string) {
		cmd := exec.Command(os.Args[0], "-test.run", "TestCLIExitCodes")
		cmd.Env = append(os.Environ(),
			"MIXPBENCH_RUN_MAIN=1",
			"MIXPBENCH_ARGS="+strings.Join(args, "\x1f"))
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run %v: %v", args, err)
		}
		return ee.ExitCode(), string(out)
	}

	if code, out := runMain("-trace", filepath.Join(dir, "t.json")); code != 1 || !strings.Contains(out, "requires -config") {
		t.Errorf("-trace without -config: code %d, output:\n%s", code, out)
	}
	if code, out := runMain("-config", cfg, "-trace", ""); code != 1 || !strings.Contains(out, "must not be empty") {
		t.Errorf("empty -trace: code %d, output:\n%s", code, out)
	}
	same := filepath.Join(dir, "same.json")
	if code, out := runMain("-config", cfg, "-trace", same, "-profile", same); code != 1 || !strings.Contains(out, "duplicate output path") {
		t.Errorf("duplicate outputs: code %d, output:\n%s", code, out)
	}

	tracePath := filepath.Join(dir, "artifacts", "trace.json")
	profilePath := filepath.Join(dir, "artifacts", "profile.json")
	code, out := runMain("-config", cfg, "-seed", "42", "-trace", tracePath, "-profile", profilePath)
	if code != 0 {
		t.Fatalf("good invocation: code %d, output:\n%s", code, out)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.ValidateChrome(f); err != nil {
		t.Errorf("exported trace does not validate: %v", err)
	}
	if _, err := os.Stat(profilePath); err != nil {
		t.Errorf("profile artifact missing: %v", err)
	}
}

// TestDeadlineContext checks the -timeout wiring: zero means no
// deadline, positive values install one.
func TestDeadlineContext(t *testing.T) {
	ctx, cancel := deadlineContext(0)
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("timeout 0 installed a deadline")
	}
	ctx2, cancel2 := deadlineContext(0.001)
	defer cancel2()
	if _, ok := ctx2.Deadline(); !ok {
		t.Error("positive timeout installed no deadline")
	}
	select {
	case <-ctx2.Done():
	case <-time.After(5 * time.Second):
		t.Error("1ms deadline never expired")
	}
}

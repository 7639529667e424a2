package harness

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/verify"
)

// cancelSpecs builds an eight-job campaign over fast kernels: seven
// delta-debugging jobs plus a genetic-algorithm tail whose long
// evaluation count guarantees the campaign outlives a mid-run cancel.
func cancelSpecs(t *testing.T) []Spec {
	t.Helper()
	base, err := ParseConfig(kmeansYAML)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []string{"hydro-1d", "iccg", "innerprod", "tridiag", "planckian", "eos", "gen-lin-recur"}
	var specs []Spec
	for _, k := range kernels {
		s := base[0]
		s.Name = "k-" + k
		s.Bin = k
		s.Metric = verify.MAE
		s.Analysis.Algorithm = "DD"
		specs = append(specs, s)
	}
	tail := base[0]
	tail.Name = "k-hydro-1d-ga"
	tail.Bin = "hydro-1d"
	tail.Metric = verify.MAE
	tail.Analysis.Algorithm = "GA"
	return append(specs, tail)
}

// recordJSON marshals one journal record for byte comparison.
func recordJSON(t *testing.T, rec JournalRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCancelMidCampaignPrefixDeterminism is the cancellation contract
// of the context-aware pipeline: cancel a campaign after N jobs have
// completed and every job that did complete cleanly - its report, its
// journal record, and its private telemetry (metrics snapshot and event
// buffer, both inside the record) - is byte-identical to the same job
// of an uninterrupted run. Checked at several worker counts; run under
// -race this also locks the cancellation path's thread safety.
func TestCancelMidCampaignPrefixDeterminism(t *testing.T) {
	specs := cancelSpecs(t)
	const cancelAfter = 2

	for _, workers := range []int{1, 2, 4} {
		dir := t.TempDir()

		// Uninterrupted baseline, journalled.
		basePath := filepath.Join(dir, "base.journal")
		baseResults, err := RunCampaign(specs, CampaignOptions{
			Workers: workers, Seed: 42,
			Telemetry:      telemetry.New(telemetry.NewMemorySink()),
			CheckpointPath: basePath,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := CampaignFingerprint(specs, 42, CampaignOptions{}.Faults)
		baseRecs, err := ReadJournal(basePath, fp, len(specs))
		if err != nil {
			t.Fatal(err)
		}
		if len(baseRecs) != len(specs) {
			t.Fatalf("workers=%d: baseline journal has %d records, want %d", workers, len(baseRecs), len(specs))
		}

		// Interrupted run: cancel once cancelAfter jobs have finished.
		ctx, cancel := context.WithCancel(context.Background())
		var finished atomic.Int64
		cutPath := filepath.Join(dir, "cut.journal")
		cutResults, err := RunCampaignContext(ctx, specs, CampaignOptions{
			Workers: workers, Seed: 42,
			Telemetry:      telemetry.New(telemetry.NewMemorySink()),
			CheckpointPath: cutPath,
			OnJobDone: func(int, JobResult) {
				if finished.Add(1) == cancelAfter {
					cancel()
				}
			},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if len(cutResults) != len(specs) {
			t.Fatalf("workers=%d: %d results, want one per job", workers, len(cutResults))
		}

		// Every cleanly completed job of the interrupted run matches the
		// baseline byte for byte, both as a result record and as the
		// journalled form (telemetry included).
		clean := 0
		for i, jr := range cutResults {
			if jr.Skipped || jr.Report.Canceled || jr.Err != nil {
				continue
			}
			clean++
			got := recordJSON(t, ResultRecord(jr, specs[i].Name))
			want := recordJSON(t, ResultRecord(baseResults[i], specs[i].Name))
			if got != want {
				t.Errorf("workers=%d job %d: completed result diverges from uninterrupted run:\n--- uninterrupted ---\n%s\n--- canceled ---\n%s",
					workers, i, want, got)
			}
		}
		if clean < cancelAfter {
			t.Errorf("workers=%d: only %d clean completions, cancel fired after %d", workers, clean, cancelAfter)
		}
		if clean == len(specs) {
			t.Errorf("workers=%d: cancellation interrupted nothing (all %d jobs completed)", workers, clean)
		}
		cutRecs, err := ReadJournal(cutPath, fp, len(specs))
		if err != nil {
			t.Fatal(err)
		}
		for idx, rec := range cutRecs {
			if got, want := recordJSON(t, rec), recordJSON(t, baseRecs[idx]); got != want {
				t.Errorf("workers=%d job %d: journal record diverges from uninterrupted run", workers, idx)
			}
		}

		// Interrupted jobs surface the cancellation, not a silent pass:
		// in-flight ones report canceled best-so-far, unstarted ones come
		// back skipped wrapping the context's cause.
		for i, jr := range cutResults {
			switch {
			case jr.Skipped:
				if !errors.Is(jr.Err, context.Canceled) {
					t.Errorf("workers=%d job %d: skipped with err %v, want context.Canceled in the chain", workers, i, jr.Err)
				}
			case jr.Report.Canceled:
				if jr.Err == nil {
					t.Errorf("workers=%d job %d: canceled report without an error", workers, i)
				}
			}
		}

		// Resuming from the interrupted journal completes the campaign
		// with final records byte-identical to the baseline: canceled and
		// skipped jobs re-run (their journal lines carry errors, so resume
		// re-executes them) and reproduce the uninterrupted outcome.
		resumed, err := RunCampaign(specs, CampaignOptions{
			Workers: workers, Seed: 42,
			Telemetry:  telemetry.New(telemetry.NewMemorySink()),
			ResumePath: cutPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, jr := range resumed {
			got := recordJSON(t, ResultRecord(jr, specs[i].Name))
			want := recordJSON(t, ResultRecord(baseResults[i], specs[i].Name))
			if got != want {
				t.Errorf("workers=%d job %d: resumed result diverges from uninterrupted run", workers, i)
			}
		}
	}
}

// TestRunContextNilAndBackgroundIdentical locks the other half of the
// contract: threading a background (or nil) context through the
// scheduler changes nothing - results are byte-identical to the
// context-free path.
func TestRunContextNilAndBackgroundIdentical(t *testing.T) {
	specs := cancelSpecs(t)[:4]
	run := func(ctx context.Context, useCtx bool) []JobResult {
		jobs, err := JobsFromSpecs(specs, 42)
		if err != nil {
			t.Fatal(err)
		}
		s := Scheduler{Workers: 2}
		if useCtx {
			return s.RunContext(ctx, jobs)
		}
		return s.Run(jobs)
	}
	base := run(nil, false)
	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		got := run(ctx, true)
		for i := range base {
			w := recordJSON(t, ResultRecord(base[i], specs[i].Name))
			g := recordJSON(t, ResultRecord(got[i], specs[i].Name))
			if w != g {
				t.Errorf("%s ctx job %d: diverges from Run", name, i)
			}
		}
	}
}

// feedProbe rides in the campaign context of TestCancelMidFeed: the
// feed-probe analysis records every job it starts and cancels the
// campaign from inside the start of job cancelAt.
type feedProbe struct {
	mu       sync.Mutex
	started  []int
	cancelAt int
	cancel   context.CancelFunc
}

type feedProbeKey struct{}

// feedProbeAnalysis names each job by its index in Spec.Name and reports
// it as found, so a result shows which job produced it.
type feedProbeAnalysis struct{}

func (feedProbeAnalysis) Name() string { return "feed-probe-test" }
func (feedProbeAnalysis) Analyze(job Job) (Report, error) {
	idx, err := strconv.Atoi(job.Spec.Name)
	if err != nil {
		return Report{}, err
	}
	p := job.Ctx.Value(feedProbeKey{}).(*feedProbe)
	p.mu.Lock()
	p.started = append(p.started, idx)
	p.mu.Unlock()
	if idx == p.cancelAt {
		p.cancel()
	}
	return Report{Benchmark: job.Spec.Name, Found: true}, nil
}

var registerFeedProbe sync.Once

// TestCancelMidFeed cancels a campaign while the dispatcher is part way
// through its interleaved feed. Two programs of three jobs each,
// submitted program by program, feed as 0, 3, 1, 4, 2, 5; with one
// worker, cancel inside job 3 lands while job 1 is next. Exactly the
// jobs no worker started come back skipped - job 1 too, should the
// feeder hand it out before it sees the cancellation - and job 3, fed
// before jobs 1 and 2, keeps its own result.
func TestCancelMidFeed(t *testing.T) {
	registerFeedProbe.Do(func() { RegisterAnalysis(feedProbeAnalysis{}) })
	jobs := programJobs("a", "a", "a", "b", "b", "b")
	for i := range jobs {
		jobs[i].Spec.Name = strconv.Itoa(i)
		jobs[i].Spec.Analysis.Name = "feed-probe-test"
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := &feedProbe{cancelAt: 3, cancel: cancel}
	ctx = context.WithValue(ctx, feedProbeKey{}, probe)

	var mu sync.Mutex
	done := map[int]int{}
	results := Scheduler{
		Workers: 1,
		OnJobDone: func(idx int, _ JobResult) {
			mu.Lock()
			done[idx]++
			mu.Unlock()
		},
	}.RunContext(ctx, jobs)

	if want := []int{0, 3}; !slices.Equal(probe.started, want) {
		t.Errorf("started jobs %v, want %v", probe.started, want)
	}
	var skipped []int
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has Index %d", i, r.Index)
		}
		if done[i] != 1 {
			t.Errorf("job %d: OnJobDone fired %d times, want once", i, done[i])
		}
		if !r.Skipped {
			continue
		}
		skipped = append(skipped, i)
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: skipped with err %v, want context.Canceled in the chain", i, r.Err)
		}
	}
	if want := []int{1, 2, 4, 5}; !slices.Equal(skipped, want) {
		t.Errorf("skipped jobs %v, want %v", skipped, want)
	}
	if r := results[3]; r.Err != nil || r.Report.Benchmark != "3" || !r.Report.Found {
		t.Errorf("job 3 result %+v, want its own clean report", r)
	}
}

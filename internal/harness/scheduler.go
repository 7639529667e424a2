package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/faults"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Scheduler fans analysis jobs out over a pool of workers, reproducing the
// paper's setup: "the harness offloads the search for each combination of
// an application/algorithm to a separate node" of the cluster. One worker
// stands in for one node. Jobs are dispatched to workers interleaved by
// program (see feedOrder), so concurrent workers search different
// programs; results, telemetry, journal records and the simulated
// cluster clock stay in submission order regardless of dispatch or
// completion order, so harness output is deterministic.
type Scheduler struct {
	// Workers is the pool size (simulated node count). Zero means
	// GOMAXPROCS.
	Workers int
	// Telemetry, when non-nil, receives the campaign's metrics and event
	// stream. Each job runs against a private recorder; after the pool
	// drains, the per-job registries are merged and the per-job event
	// buffers replayed in job submission order, so metric snapshots are
	// byte-identical under any worker count. Job spans (queue wait, run
	// duration, worker id) come from the simulated cluster clock - list
	// scheduling of each job's simulated analysis seconds over the pool -
	// not from host goroutine timing. Only the campaign progress gauge
	// and completion counter update live while jobs execute.
	Telemetry *telemetry.Recorder
	// Faults, when non-nil, injects deterministic failures into job
	// attempts. Every injection decision is a pure function of (fault
	// seed, job identity, attempt number), so fault campaigns stay
	// reproducible under any worker count.
	Faults *faults.Injector
	// Retry governs re-execution of attempts that die transiently; the
	// zero value means DefaultRetryPolicy. Backoff waits are charged to
	// the simulated cluster clock.
	Retry RetryPolicy
	// Journal, when non-nil, receives one fsync'd record per completed
	// job, enabling checkpoint/resume.
	Journal *Journal
	// Resume maps job index to the journal record of a previous,
	// interrupted campaign. Resumed jobs are not re-run: their results are
	// rebuilt from the record and their journalled telemetry is merged as
	// if the jobs had just executed.
	Resume map[int]JournalRecord
	// Cache, when non-nil, is shared across every job in the pool: each
	// distinct (benchmark, seed, semantics, machine, configuration) runs
	// once for the whole campaign instead of once per job that proposes
	// it. Sharing never changes output - results are pure functions of the
	// key, jobs charge simulated time for hits as for misses, and cache
	// telemetry stays on the cache's own recorder - so campaign reports
	// and telemetry snapshots are byte-identical with or without it.
	Cache *bench.Cache
	// Compiler, when non-nil, is the campaign-wide compile cache,
	// installed on every job like Cache: jobs that propose the same
	// configuration share one specialized kernel. Nil falls back to the
	// process-wide shared compiler.
	Compiler *compile.Compiler
	// OnJobDone, when non-nil, is called once per job as it completes
	// (resumed jobs included), with the job's index and final result.
	// Calls come from whichever worker finished the job, concurrently and
	// in completion order - the engine uses it for live progress; anything
	// determinism-sensitive belongs in Telemetry, not here.
	OnJobDone func(idx int, r JobResult)
	// TraceDiag, when non-nil, collects scheduling-dependent run-cache
	// attribution: each job gets a probe threaded through its context, and
	// the shared cache bumps it on hits, misses, and in-flight waits. Like
	// OnJobDone this is a live diagnostic - which job leads an execution
	// is a race between workers - so it feeds mixpd's live view, never the
	// deterministic trace exports (those are assembled post-hoc by
	// BuildTrace from per-job accounting).
	TraceDiag *trace.Diag
}

// JobResult pairs a job's report with its error, positionally aligned
// with the submitted jobs.
type JobResult struct {
	// Index is the job's position in the submitted slice, so a result
	// extracted from the batch still names the entry it belongs to.
	Index  int
	Report Report
	Err    error
	// Attempts is the execution history under fault injection, in order;
	// a single clean attempt when nothing was injected.
	Attempts []Attempt
	// Degraded marks a job that exhausted its retry budget on transient
	// faults. Its Err carries the last attempt's failure; the campaign
	// continues around it.
	Degraded bool
	// Skipped marks a job the campaign context canceled before it ever
	// started: nothing ran, nothing was journalled, and Err wraps the
	// context's cause. A resumed campaign re-runs it.
	Skipped bool
}

// TotalSeconds is the job's full simulated cost: every attempt's spend
// plus the backoff waits between them. The scheduler's job spans and the
// job-duration histogram are built from it, so lost work and waiting are
// visible on the simulated cluster clock.
func (r JobResult) TotalSeconds() float64 {
	if len(r.Attempts) == 0 {
		return r.Report.SpentSeconds
	}
	var t float64
	for _, a := range r.Attempts {
		t += a.SpentSeconds + a.BackoffSeconds
	}
	return t
}

// Run executes all jobs and returns their results in submission order.
func (s Scheduler) Run(jobs []Job) []JobResult {
	return s.RunContext(context.Background(), jobs)
}

// RunContext is Run under a cancellation context. Once ctx is done,
// in-flight jobs stop at their next evaluation boundary and report
// canceled best-so-far analyses, jobs no worker has started are marked
// Skipped without running, and retry loops abandon their remaining
// attempts. Results still come back in submission order, one per job. A
// background (or never-canceled) context leaves every result, journal
// record, and telemetry snapshot byte-identical to Run.
func (s Scheduler) RunContext(ctx context.Context, jobs []Job) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	// Per-job private recorders keep concurrent telemetry deterministic:
	// nothing is shared while workers race, everything merges in job
	// order afterwards.
	var recs []*telemetry.Recorder
	var mems []*telemetry.MemorySink
	if s.Telemetry != nil {
		start := map[string]any{"jobs": len(jobs), "workers": workers}
		if len(s.Resume) > 0 {
			start["resumed"] = len(s.Resume)
		}
		s.Telemetry.Emit("campaign_start", start)
		s.Telemetry.Counter("mixpbench_harness_jobs_total").Add(float64(len(jobs)))
		mems = make([]*telemetry.MemorySink, len(jobs))
		recs = make([]*telemetry.Recorder, len(jobs))
		for i := range jobs {
			mems[i] = telemetry.NewMemorySink()
			recs[i] = telemetry.New(mems[i])
		}
	}

	// Resumed jobs never enter the queue: their results - report,
	// attempt history, and private telemetry - are rebuilt from the
	// journal, so the merged campaign output matches an uninterrupted
	// run's byte for byte.
	var completed atomic.Int64
	for i := range jobs {
		rec, ok := s.Resume[i]
		if !ok {
			continue
		}
		results[i] = rec.result(i)
		if s.Telemetry != nil {
			recs[i].Registry().AddSnapshot(rec.Metrics)
			for _, e := range rec.Events {
				mems[i].Emit(e)
			}
			done := completed.Add(1)
			s.Telemetry.Counter("mixpbench_harness_jobs_completed_total").Inc()
			s.Telemetry.Gauge("mixpbench_harness_progress").SetMax(float64(done) / float64(len(jobs)))
		}
		if s.OnJobDone != nil {
			s.OnJobDone(i, results[i])
		}
	}

	type task struct {
		idx int
		job Job
	}
	queue := make(chan task)
	// started records, per job, that a worker began it. A job the context
	// canceled before that - never handed out, or handed out after the
	// cancellation - is neither run nor journalled, and is marked skipped
	// once the pool drains.
	started := make([]bool, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				if ctx.Err() != nil {
					continue
				}
				started[t.idx] = true
				if recs != nil {
					t.job.Telemetry = recs[t.idx]
				}
				t.job.Ctx = ctx
				if s.TraceDiag != nil {
					t.job.Ctx = trace.WithProbe(ctx, s.TraceDiag.Probe(t.idx))
				}
				t.job.Cache = s.Cache
				t.job.Compiler = s.Compiler
				results[t.idx] = s.executeJob(t.idx, t.job)
				if s.Journal != nil {
					s.Journal.Append(s.record(t.idx, t.job, results[t.idx], recs, mems))
				}
				if s.Telemetry != nil {
					done := completed.Add(1)
					s.Telemetry.Counter("mixpbench_harness_jobs_completed_total").Inc()
					s.Telemetry.Gauge("mixpbench_harness_progress").SetMax(float64(done) / float64(len(jobs)))
				}
				if s.OnJobDone != nil {
					s.OnJobDone(t.idx, results[t.idx])
				}
			}
		}()
	}
	// Feed in dispatch order until the context dies; whatever no worker
	// started by then is marked skipped so the result slice stays fully
	// populated. In-flight jobs are not interrupted here - their
	// evaluators observe the same context and stop at the next evaluation
	// boundary.
feed:
	for _, i := range feedOrder(jobs) {
		if _, resumed := s.Resume[i]; resumed {
			continue
		}
		select {
		case queue <- task{idx: i, job: jobs[i]}:
		case <-ctx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()
	for i := range jobs {
		if _, resumed := s.Resume[i]; resumed || started[i] {
			continue
		}
		results[i] = JobResult{
			Index:   i,
			Skipped: true,
			Err: fmt.Errorf("harness: job %d (%s/%s) skipped: %w",
				i, jobs[i].Spec.Name, jobs[i].Spec.Analysis.Algorithm, context.Cause(ctx)),
		}
		if s.OnJobDone != nil {
			s.OnJobDone(i, results[i])
		}
	}

	if s.Telemetry != nil {
		s.flushTelemetry(jobs, results, recs, mems, workers)
	}
	return results
}

// feedOrder is the order RunContext hands jobs to workers: the first job
// of each program, programs in order of first appearance, then the second
// job of each, and so on. Campaigns list a program's jobs back to back,
// and every strategy over one program proposes the same early
// configurations, so a submission-order feed puts the workers on one
// program at once, where they block on each other's in-flight run-cache
// entries. The order is a fixed function of the job list and only
// decides which worker runs a job when; results are indexed by job.
func feedOrder(jobs []Job) []int {
	group := map[string]int{}
	var groups [][]int
	for i, j := range jobs {
		// The program is the run cache's Key.Bench; a job with no
		// resolved benchmark (runOne reports it as an error) falls back
		// to its configured binary.
		name := j.Spec.Bin
		if j.Benchmark != nil {
			name = j.Benchmark.Name()
		}
		g, ok := group[name]
		if !ok {
			g = len(groups)
			group[name] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	order := make([]int, 0, len(jobs))
	for round := 0; len(order) < len(jobs); round++ {
		for _, g := range groups {
			if round < len(g) {
				order = append(order, g[round])
			}
		}
	}
	return order
}

// flushTelemetry folds the per-job recorders into the campaign recorder
// in job submission order and emits the per-job span events against the
// simulated cluster schedule.
func (s Scheduler) flushTelemetry(jobs []Job, results []JobResult, recs []*telemetry.Recorder, mems []*telemetry.MemorySink, workers int) {
	durations := make([]float64, len(jobs))
	for i, r := range results {
		durations[i] = r.TotalSeconds()
	}
	starts, assigned := listSchedule(durations, workers)
	errs, degraded := 0, 0
	for i := range jobs {
		spec := jobs[i].Spec
		s.Telemetry.Emit("job_start", map[string]any{
			"job":           i,
			"entry":         spec.Name,
			"bench":         spec.Bin,
			"algorithm":     spec.Analysis.Algorithm,
			"threshold":     spec.Analysis.Threshold,
			"worker":        assigned[i],
			"queue_seconds": starts[i],
		})
		s.Telemetry.Stream().Replay(mems[i].Events())
		s.Telemetry.Registry().Merge(recs[i].Registry())
		end := map[string]any{
			"job":         i,
			"worker":      assigned[i],
			"run_seconds": durations[i],
			"evaluated":   results[i].Report.Evaluated,
			"found":       results[i].Report.Found,
			"timed_out":   results[i].Report.TimedOut,
			"attempts":    max(1, len(results[i].Attempts)),
		}
		if results[i].Degraded {
			end["degraded"] = true
			degraded++
		}
		// Cancellation markers only ever appear in interrupted campaigns,
		// so uninterrupted runs keep their byte-identical streams.
		if results[i].Skipped {
			end["skipped"] = true
		}
		if results[i].Report.Canceled {
			end["canceled"] = true
		}
		if err := results[i].Err; err != nil {
			end["error"] = err.Error()
			errs++
			s.Telemetry.Counter("mixpbench_harness_job_errors_total").Inc()
		}
		s.Telemetry.Emit("job_end", end)
		// Queue wait depends on the pool size, so it stays event-only:
		// the registry must snapshot byte-identically for any -workers.
		s.Telemetry.Histogram("mixpbench_harness_job_seconds", telemetry.SecondsBuckets).Observe(durations[i])
	}
	s.Telemetry.Gauge("mixpbench_harness_degraded_jobs").Set(float64(degraded))
	s.Telemetry.Emit("campaign_end", map[string]any{"jobs": len(jobs), "errors": errs, "degraded": degraded})
}

// listSchedule assigns each job, in submission order, to the worker that
// frees earliest (ties to the lowest worker id), over the jobs' simulated
// durations. This is the simulated cluster's clock: it is deterministic
// for a given worker count, where the host goroutine timing is not.
func listSchedule(durations []float64, workers int) (starts []float64, assigned []int) {
	free := make([]float64, workers)
	starts = make([]float64, len(durations))
	assigned = make([]int, len(durations))
	for i, d := range durations {
		w := 0
		for j := 1; j < workers; j++ {
			if free[j] < free[w] {
				w = j
			}
		}
		starts[i] = free[w]
		assigned[i] = w
		free[w] += d
	}
	return starts, assigned
}

// ctxErr reports a context's cancellation, tolerating nil: retry loops
// consult it so a dying campaign never waits out a backoff schedule for
// a job whose context is already gone.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// jobKey names a job stably across runs, worker counts, and resume
// boundaries; it keys the fault injector's decisions.
func jobKey(s Spec) string {
	return fmt.Sprintf("%s/%s/%s/%g", s.Name, s.Bin, s.Analysis.Algorithm, s.Analysis.Threshold)
}

// executeJob runs one job under the scheduler's fault plan and retry
// policy. Each attempt draws its fault independently; an attempt that
// dies to a transient fault is retried after an exponential backoff
// charged to the simulated clock, up to the policy's attempt cap. A job
// whose final attempt still fails transiently is marked degraded - its
// structured error and attempt history land in the result, and the
// campaign continues. Panics and plugin errors are terminal immediately:
// retrying a deterministic bug reproduces it.
func (s Scheduler) executeJob(idx int, job Job) JobResult {
	policy := s.Retry.normalized()
	key := jobKey(job.Spec)
	var attempts []Attempt
	for attempt := 1; ; attempt++ {
		f := s.Faults.Draw(key, attempt)
		job.FailAtEvaluation = 0
		if f.Kind == faults.Transient || f.Kind == faults.Crash {
			job.FailAtEvaluation = f.FailAfter
		}
		jr := runOne(idx, job)
		if f.Kind == faults.Straggler {
			// The slow node completes the work; it just bills more
			// simulated time for it.
			jr.Report.SpentSeconds *= f.Slowdown
		}
		a := Attempt{
			Attempt:      attempt,
			SpentSeconds: jr.Report.SpentSeconds,
			BuildSeconds: jr.Report.BuildSeconds,
			RunSeconds:   jr.Report.RunSeconds,
			Evaluations:  jr.Report.Evaluated,
			CacheHits:    jr.Report.CacheHits,
		}
		transient := errors.Is(jr.Err, search.ErrTransient)
		fired := f.Kind == faults.Straggler || (f.Kind != faults.None && transient)
		if fired {
			// A drawn transient/crash fault only counts if the analysis
			// was still running when it struck; finishing first dodges it.
			a.Fault = f.Kind.String()
			if job.Telemetry != nil {
				job.Telemetry.Counter("mixpbench_harness_faults_injected_total",
					"kind", f.Kind.String()).Inc()
			}
		}
		if jr.Err != nil {
			a.Err = jr.Err.Error()
		}
		if transient && attempt < policy.MaxAttempts && ctxErr(job.Ctx) == nil {
			a.BackoffSeconds = policy.Backoff(attempt)
			attempts = append(attempts, a)
			if job.Telemetry != nil {
				job.Telemetry.Counter("mixpbench_harness_retries_total").Inc()
				job.Telemetry.Emit("job_retry", map[string]any{
					"job":             idx,
					"entry":           job.Spec.Name,
					"attempt":         attempt,
					"fault":           a.Fault,
					"error":           a.Err,
					"lost_seconds":    a.SpentSeconds,
					"backoff_seconds": a.BackoffSeconds,
				})
			}
			continue
		}
		jr.Attempts = append(attempts, a)
		if transient {
			jr.Degraded = true
			jr.Err = fmt.Errorf("harness: job %d (%s/%s) degraded after %d attempts: %w",
				idx, job.Spec.Name, job.Spec.Analysis.Algorithm, attempt, jr.Err)
		}
		return jr
	}
}

// record assembles the job's checkpoint-journal record, including its
// private telemetry so resume can splice it back.
func (s Scheduler) record(idx int, job Job, jr JobResult, recs []*telemetry.Recorder, mems []*telemetry.MemorySink) JournalRecord {
	rec := ResultRecord(jr, job.Spec.Name)
	rec.Job = idx
	if recs != nil {
		rec.Metrics = recs[idx].Registry().Snapshot()
		rec.Events = telemetry.FiniteEvents(mems[idx].Events())
	}
	return rec
}

// runOne resolves and executes a single job, converting panics from
// misdeclared benchmarks into errors so one bad entry cannot take down a
// whole campaign. The recovered error carries the panicking job's index
// and stack so the failure is diagnosable from the campaign report alone.
func runOne(idx int, job Job) (jr JobResult) {
	jr.Index = idx
	defer func() {
		if r := recover(); r != nil {
			jr.Err = fmt.Errorf("harness: job %d (%s/%s) panicked: %v\n%s",
				idx, job.Spec.Name, job.Spec.Analysis.Algorithm, r, debug.Stack())
		}
	}()
	plugin, err := LookupAnalysis(job.Spec.Analysis.Name)
	if err != nil {
		jr.Err = err
		return jr
	}
	jr.Report, jr.Err = plugin.Analyze(job)
	return jr
}

// JobsFromSpecs resolves each spec's benchmark and builds one job per
// spec with the given workload seed. Every unresolvable entry is
// reported, not just the first, so one pass over the error fixes the
// whole configuration.
func JobsFromSpecs(specs []Spec, seed int64) ([]Job, error) {
	jobs := make([]Job, 0, len(specs))
	var errs []error
	for _, s := range specs {
		b, err := s.Resolve()
		if err != nil {
			errs = append(errs, fmt.Errorf("entry %q: %w", s.Name, err))
			continue
		}
		jobs = append(jobs, Job{Spec: s, Benchmark: b, Seed: seed})
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return jobs, nil
}

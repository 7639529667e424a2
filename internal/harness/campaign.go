package harness

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/faults"
	"repro/internal/mp"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// CampaignOptions configures one fault-tolerant campaign run.
type CampaignOptions struct {
	// Workers is the simulated node-pool size (0 = GOMAXPROCS).
	Workers int
	// Seed drives the workload and analysis randomness.
	Seed int64
	// Telemetry receives the campaign's metrics and events (nil = off).
	Telemetry *telemetry.Recorder
	// Faults is the fault model; the zero plan injects nothing.
	Faults faults.Plan
	// Retry governs transient-failure retries; zero = DefaultRetryPolicy.
	Retry RetryPolicy
	// CheckpointPath, when set, journals each completed job there.
	CheckpointPath string
	// ResumePath, when set, loads a previous checkpoint journal and skips
	// the jobs it records as cleanly completed. It may equal
	// CheckpointPath, in which case the journal is extended in place.
	ResumePath string
	// Cache, when non-nil, is the shared run cache to install on the
	// scheduler. When nil and NoCache is false, RunCampaign creates a
	// fresh campaign-private cache, so sharing is the default.
	Cache *bench.Cache
	// NoCache disables run caching for this campaign: every job executes
	// every configuration it proposes. Output is identical either way;
	// tests and benchmarks use it as the cache-off reference.
	NoCache bool
	// Compiler, when non-nil, is the compiler to install on the
	// scheduler. When nil, RunCampaign creates a campaign-private one,
	// so a long-lived process does not keep every campaign's recorded
	// input streams in the process-wide compiler.
	Compiler *compile.Compiler
	// Precisions, when non-empty, is the default precision ladder (e.g.
	// "f64,f32,bf16") applied to every spec whose analysis clause does not
	// set its own precisions. The default ladder leaves specs - and hence
	// the campaign fingerprint - untouched.
	Precisions string
	// Objective, when non-empty, is the default analysis objective
	// ("threshold" or "pareto") applied to every spec whose analysis
	// clause leaves the objective at its threshold default.
	Objective string
	// OnJobDone, when non-nil, is called once per completed job from
	// whichever worker finished it (see Scheduler.OnJobDone).
	OnJobDone func(idx int, r JobResult)
	// TraceDiag, when non-nil, collects live per-job run-cache attribution
	// (see Scheduler.TraceDiag). Diagnostic only; deterministic traces are
	// built post-hoc with BuildTrace.
	TraceDiag *trace.Diag
}

// RunCampaign executes one campaign over the specs: it builds the jobs,
// arms the fault injector, wires checkpoint/resume, and runs the
// scheduler. Per-job failures (including degraded jobs) live in the
// returned results; the error return is reserved for campaign-level
// problems - unresolvable specs, an invalid fault plan, or a journal
// that cannot be read or written.
func RunCampaign(specs []Spec, opts CampaignOptions) ([]JobResult, error) {
	return RunCampaignContext(context.Background(), specs, opts)
}

// RunCampaignContext is RunCampaign under a cancellation context: once
// ctx is done, in-flight jobs report canceled best-so-far analyses and
// unstarted jobs come back Skipped (see Scheduler.RunContext). The
// checkpoint journal records only what actually ran, so a canceled
// campaign resumes exactly like an interrupted one.
func RunCampaignContext(ctx context.Context, specs []Spec, opts CampaignOptions) ([]JobResult, error) {
	specs, err := applyCampaignDefaults(specs, opts)
	if err != nil {
		return nil, err
	}
	jobs, err := JobsFromSpecs(specs, opts.Seed)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(opts.Faults)
	if err != nil {
		return nil, err
	}
	fp := CampaignFingerprint(specs, opts.Seed, opts.Faults)

	var resume map[int]JournalRecord
	if opts.ResumePath != "" {
		if resume, err = ReadJournal(opts.ResumePath, fp, len(jobs)); err != nil {
			return nil, err
		}
		// The scheduler journals every record under its job's entry name,
		// so a record for another entry (or none: "null", "{}") is not
		// one this campaign wrote, and resuming it would report an empty
		// result.
		for i, spec := range specs {
			if rec, ok := resume[i]; ok && rec.Entry != spec.Name {
				return nil, fmt.Errorf("harness: journal %s: record for job %d is for entry %q, not %q",
					opts.ResumePath, i, rec.Entry, spec.Name)
			}
		}
	}
	var journal *Journal
	if opts.CheckpointPath != "" {
		if opts.CheckpointPath == opts.ResumePath {
			journal, err = AppendJournal(opts.CheckpointPath, fp, len(jobs))
		} else {
			journal, err = CreateJournal(opts.CheckpointPath, fp, len(jobs))
			if err == nil {
				// Carry the resumed records into the fresh journal so it
				// alone can restart the campaign.
				for i := 0; i < len(jobs); i++ {
					if rec, ok := resume[i]; ok {
						journal.Append(rec)
					}
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}

	cache := opts.Cache
	if cache == nil && !opts.NoCache {
		cache = bench.NewCache(nil)
	}
	compiler := opts.Compiler
	if compiler == nil {
		compiler = compile.New(nil)
	}
	s := Scheduler{
		Workers:   opts.Workers,
		Telemetry: opts.Telemetry,
		Faults:    inj,
		Retry:     opts.Retry,
		Journal:   journal,
		Resume:    resume,
		Cache:     cache,
		Compiler:  compiler,
		OnJobDone: opts.OnJobDone,
		TraceDiag: opts.TraceDiag,
	}
	results := s.RunContext(ctx, jobs)
	if err := journal.Close(); err != nil {
		return results, fmt.Errorf("harness: checkpoint journal: %w", err)
	}
	return results, nil
}

// applyCampaignDefaults resolves the campaign-wide precisions and
// objective options onto the specs that do not set their own, before jobs
// and the fingerprint are built (the applied values are part of the
// campaign definition). Specs are copied; the caller's slice is never
// mutated. Empty options - and the default ladder - change nothing.
func applyCampaignDefaults(specs []Spec, opts CampaignOptions) ([]Spec, error) {
	if opts.Precisions == "" && opts.Objective == "" {
		return specs, nil
	}
	var ladder mp.Ladder
	if opts.Precisions != "" {
		l, err := mp.ParseLadder(opts.Precisions)
		if err != nil {
			return nil, fmt.Errorf("harness: campaign precisions: %w", err)
		}
		if !l.IsDefault() {
			ladder = l
		}
	}
	objective := search.ObjectiveThreshold
	if opts.Objective != "" {
		o, err := search.ParseObjective(opts.Objective)
		if err != nil {
			return nil, fmt.Errorf("harness: campaign objective: %w", err)
		}
		objective = o
	}
	out := make([]Spec, len(specs))
	copy(out, specs)
	for i := range out {
		if ladder != nil && out[i].Analysis.Precisions == nil {
			out[i].Analysis.Precisions = ladder
		}
		if objective != search.ObjectiveThreshold && out[i].Analysis.Objective == search.ObjectiveThreshold {
			out[i].Analysis.Objective = objective
		}
	}
	return out, nil
}

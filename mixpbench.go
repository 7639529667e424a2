// Package mixpbench is the public API of the HPC-MixPBench reproduction:
// a benchmark suite for mixed-precision analysis (Parasyris et al., IISWC
// 2020) ported to Go.
//
// The suite bundles ten HPC kernels and seven proxy applications, each
// exposing its floating-point variables as tunable precision sites
// together with the type-dependence clusters a source-level tool must
// respect. On top sit the six mixed-precision search strategies the paper
// compares (combinational, compositional, delta debugging, hierarchical,
// hierarchical-compositional, genetic), a verification library with the
// paper's error metrics, and a YAML-driven harness that deploys analyses
// over benchmarks.
//
// # Quick start
//
//	b, _ := mixpbench.Benchmark("hydro-1d")
//	out, err := mixpbench.Tune(b, mixpbench.TuneOptions{
//		Algorithm: "DD",
//		Threshold: 1e-8,
//	})
//
// Tune returns the configuration the strategy converged to, its speedup
// under the calibrated machine model, its verified error, and the number
// of configurations evaluated. Lower-level control - custom thresholds,
// budgets, evaluators, or new strategies - is available through the
// re-exported types below; regeneration of every table and figure of the
// paper lives in Study and the cmd/mptables command.
package mixpbench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/mp"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// Re-exported core types. These aliases are the supported public names;
// the internal packages they point at are implementation layout.
type (
	// BenchmarkProgram is one suite program: a kernel or application.
	BenchmarkProgram = bench.Benchmark
	// Config assigns a precision to every tunable variable.
	Config = bench.Config
	// Runner executes configurations under the machine model.
	Runner = bench.Runner
	// RunResult is one configuration's execution record. A Runner with a
	// run cache shares each stored record with every caller; its methods
	// return copies of Output.Values and Profile, so a RunResult they
	// return is the caller's to change.
	RunResult = bench.Result
	// Prec is a precision level (F64 or F32).
	Prec = mp.Prec
	// Metric is a verification metric (MAE, RMSE, MSE, R2, MCR).
	Metric = verify.Metric
	// Verdict is a quality-check outcome.
	Verdict = verify.Verdict
	// Graph is a type-dependence graph over tunable variables.
	Graph = typedep.Graph
	// Space is a search space over clusters or variables.
	Space = search.Space
	// Evaluator runs configurations for a search strategy.
	Evaluator = search.Evaluator
	// Algorithm is one search strategy.
	Algorithm = search.Algorithm
	// Outcome is a strategy's result.
	Outcome = search.Outcome
	// HarnessSpec is one benchmark entry of a harness configuration.
	HarnessSpec = harness.Spec
	// HarnessJob is one deployed analysis.
	HarnessJob = harness.Job
	// HarnessReport is an analysis result.
	HarnessReport = harness.Report
	// HarnessCampaign is a parsed configuration with its fault clause.
	HarnessCampaign = harness.Campaign
	// HarnessJobResult is one job's result with its attempt history.
	HarnessJobResult = harness.JobResult
	// HarnessAttempt is one execution attempt under fault injection.
	HarnessAttempt = harness.Attempt
	// FaultPlan configures the deterministic fault injector.
	FaultPlan = faults.Plan
	// RetryPolicy governs retry/backoff for transient job failures.
	RetryPolicy = harness.RetryPolicy
	// Study is a full regeneration of the paper's evaluation.
	Study = report.Study
	// RunCache memoises benchmark executions process-wide. One cache can
	// back any number of Runners and harness jobs concurrently; sharing
	// never changes results, budgets, or telemetry (see bench.Runner.Cache
	// for the determinism contract).
	RunCache = bench.Cache
	// RunCacheStats is a point-in-time view of a cache's hit/miss/wait
	// counters and entry count.
	RunCacheStats = runcache.Stats
)

// NewRunCache returns an empty shared run cache. tel, when non-nil,
// receives the cache's own hit/miss/inflight-wait counters and
// runcache_hit events; keep it separate from deterministic campaign
// telemetry, because the hit/wait split between concurrent workers
// depends on real scheduling.
func NewRunCache(tel *Telemetry) *RunCache { return bench.NewCache(tel) }

// Durable result store types. A ResultStore persists benchmark
// executions on disk behind the run cache - append-only checksummed
// segments, fsync'd on write, recovered past torn tails and corrupt
// segments at Open - so a second process (or a restarted one) serves a
// prior campaign's executions without re-running them. Results served
// from the store are bit-identical to fresh executions, and campaigns
// stay byte-identical with the store on, off, cold, or warm (hits
// still charge the simulated build and run time).
type (
	// ResultStore is the disk-backed, content-addressed result store.
	// Its Put takes ownership of the key and value slices without
	// copying them: the caller must not modify either afterwards.
	ResultStore = store.Store
	// ResultStoreOptions configures a custom store open (fingerprint,
	// read-only mode, segment sizing, eviction budget) via store.Open;
	// OpenResultStore covers the common case.
	ResultStoreOptions = store.Options
	// ResultStoreStats is a point-in-time view of a store's record,
	// traffic, and health counters.
	ResultStoreStats = store.Stats
)

// Result store sentinel errors, for errors.Is against Open failures.
var (
	// ErrStoreFingerprint refuses a store written under an incompatible
	// machine model or result encoding.
	ErrStoreFingerprint = store.ErrFingerprint
	// ErrStoreVersion refuses a store whose segment format this build
	// does not speak.
	ErrStoreVersion = store.ErrVersion
)

// OpenResultStore opens (creating as needed) the durable result store
// at dir, fingerprinted for the default machine model - the one every
// standard Runner and harness campaign uses. A store written under a
// different model or result encoding is refused with
// ErrStoreFingerprint rather than silently misread.
func OpenResultStore(dir string) (*ResultStore, error) {
	return store.Open(dir, store.Options{Fingerprint: bench.DefaultStoreFingerprint()})
}

// NewStoredRunCache returns a run cache that consults st before
// executing and publishes fresh executions to it (write-behind; close
// the store to flush). A nil store yields a plain in-memory cache.
func NewStoredRunCache(tel *Telemetry, st *ResultStore) *RunCache {
	return bench.NewStoredCache(tel, st)
}

// Telemetry types. A Telemetry recorder bundles a metrics registry
// (counters, gauges, histograms with Prometheus-style text exposition)
// with a structured event stream; Tune and RunHarnessWith accept one, and
// downstream users can attach their own sinks. All timings fed into it
// come from the simulated clock, so seeded runs are byte-reproducible.
type (
	// Telemetry records metrics and events for an instrumented run.
	Telemetry = telemetry.Recorder
	// TelemetryEvent is one structured record of the event stream.
	TelemetryEvent = telemetry.Event
	// TelemetrySink consumes telemetry events (JSONL, in-memory, or a
	// user implementation).
	TelemetrySink = telemetry.Sink
	// MetricsRegistry holds a run's metrics.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = telemetry.Snapshot
	// MemoryEventSink buffers telemetry events in memory.
	MemoryEventSink = telemetry.MemorySink
	// JSONLEventSink writes one JSON event per line and accounts for
	// mid-stream write failures (WriteErrors, and a Close error naming
	// the failed event's sequence number).
	JSONLEventSink = telemetry.JSONLSink
)

// NewTelemetry returns a recorder whose events go to sink (nil keeps
// metrics but drops events).
func NewTelemetry(sink TelemetrySink) *Telemetry { return telemetry.New(sink) }

// NewJSONLSink returns a telemetry sink writing one JSON event per line.
func NewJSONLSink(w io.Writer) *JSONLEventSink { return telemetry.NewJSONLSink(w) }

// NewMemorySink returns a telemetry sink buffering events in memory.
func NewMemorySink() *MemoryEventSink { return telemetry.NewMemorySink() }

// Types needed to implement a new benchmark against the public API.
type (
	// Tape carries a precision configuration through one benchmark run
	// and meters its cost.
	Tape = mp.Tape
	// Array is a precision-tracked buffer allocated from a Tape.
	Array = mp.Array
	// VarID names one tunable variable.
	VarID = mp.VarID
	// VarKind classifies a tunable variable.
	VarKind = typedep.Kind
	// Output is a benchmark's verification payload.
	Output = bench.Output
	// ProgramKind separates kernels from applications.
	ProgramKind = bench.Kind
)

// Precision levels. F16 is the extension level for accelerator-style
// three-level studies; the paper-table regenerations only assign F64 and
// F32.
const (
	F64 = mp.F64
	F32 = mp.F32
	F16 = mp.F16
)

// Variable kinds for dependence-graph declarations.
const (
	Scalar   = typedep.Scalar
	ArrayVar = typedep.ArrayVar
	Param    = typedep.Param
	Pointer  = typedep.Pointer
)

// Program kinds.
const (
	Kernel = bench.Kernel
	App    = bench.App
)

// NewGraph returns an empty type-dependence graph for declaring a new
// benchmark's tunable variables.
func NewGraph() *Graph { return typedep.NewGraph() }

// ComputeMetric evaluates metric m over a reference and a candidate
// output.
func ComputeMetric(m Metric, ref, got []float64) (float64, error) {
	return verify.Compute(m, ref, got)
}

// CheckMetric evaluates metric m and applies a quality threshold,
// rejecting non-finite candidate output.
func CheckMetric(m Metric, ref, got []float64, threshold float64) (Verdict, error) {
	return verify.Check(m, ref, got, threshold)
}

// RegisterMetric installs a custom verification metric under the given
// name (usable in harness configuration files like a built-in). The
// function must return 0 for exact agreement and grow with error. It
// panics on name collisions, as registration runs at program start.
func RegisterMetric(name string, fn func(ref, got []float64) float64) Metric {
	return verify.RegisterMetric(name, fn)
}

// Verification metrics.
const (
	MAE  = verify.MAE
	RMSE = verify.RMSE
	MSE  = verify.MSE
	R2   = verify.R2
	MCR  = verify.MCR
)

// Benchmark resolves a suite benchmark by name (case- and
// separator-insensitive, so "kmeans" finds "K-means").
func Benchmark(name string) (BenchmarkProgram, error) {
	return suite.Lookup(name)
}

// Benchmarks returns the whole suite: kernels first, then applications.
func Benchmarks() []BenchmarkProgram { return suite.All() }

// Kernels returns the ten kernel benchmarks of Table I.
func Kernels() []BenchmarkProgram { return suite.Kernels() }

// Apps returns the seven proxy applications.
func Apps() []BenchmarkProgram { return suite.Apps() }

// Algorithms lists the six strategy names in table order.
func Algorithms() []string {
	return append([]string(nil), search.AlgorithmNames...)
}

// ExtensionAlgorithms lists strategies beyond the paper's six (currently
// GP, the greedy profile-guided search); they are accepted everywhere an
// algorithm name is, but excluded from the table regenerations.
func ExtensionAlgorithms() []string {
	return append([]string(nil), search.ExtensionNames...)
}

// CanonicalAlgorithm resolves an algorithm spelling (abbreviation or long
// name like "ddebug") to its table abbreviation, erroring on unknown
// names. It is the validation the CLI and harness configs share.
func CanonicalAlgorithm(name string) (string, error) {
	return harness.CanonicalAlgorithm(name)
}

// ParsePrecisions validates a precision-ladder specification such as
// "f64,f32,bf16" and returns its canonical rendering. An empty spec is
// the default two-level double/single ladder. It is the validation the
// CLI flags and harness configs share.
func ParsePrecisions(spec string) (string, error) {
	ladder, err := mp.ParseLadder(spec)
	if err != nil {
		return "", err
	}
	return ladder.String(), nil
}

// ParseObjective validates an analysis-objective name ("threshold" or
// "pareto"; empty = threshold) and returns its canonical rendering.
func ParseObjective(name string) (string, error) {
	o, err := search.ParseObjective(name)
	if err != nil {
		return "", err
	}
	return o.String(), nil
}

// NewRunner returns a Runner with the calibrated default machine model,
// the paper's ten-repetition measurement protocol, and the given workload
// seed.
func NewRunner(seed int64) *Runner { return bench.NewRunner(seed) }

// TuneOptions parameterises Tune.
type TuneOptions struct {
	// Algorithm is the strategy name: CB, CM, DD, HR, HC, or GA (long
	// names like "ddebug" are accepted).
	Algorithm string
	// Threshold is the quality bound; zero means the kernel-study default
	// of 1e-8.
	Threshold float64
	// Seed drives the workload and any strategy randomness; zero means
	// the canonical study seed.
	Seed int64
	// BudgetSeconds caps the analysis in simulated seconds; zero means
	// the paper's 24-hour limit.
	BudgetSeconds float64
	// Trace records every configuration the analysis builds (CRAFT's
	// per-configuration log), returned in TuneResult.Trace.
	Trace bool
	// Telemetry, when non-nil, receives per-evaluation metrics and
	// events for the whole tuning run (evaluator and runner included).
	Telemetry *Telemetry
	// Cache, when non-nil, memoises benchmark executions: repeated Tune
	// calls over the same benchmark and seed (different algorithms, say)
	// skip re-executing configurations they share. Results are identical
	// with or without it.
	Cache *RunCache
	// Precisions is the precision ladder to search over, e.g.
	// "f64,f32,bf16" or "f64,f32,f16"; empty means the paper's two-level
	// double/single study.
	Precisions string
	// Objective selects "threshold" (the default) or "pareto", which
	// additionally records every evaluated configuration's (time, energy,
	// error) point and returns the non-dominated front in
	// TuneResult.Front.
	Objective string
}

// TuneResult is what Tune reports.
type TuneResult struct {
	// Found reports whether any passing configuration was identified; the
	// remaining fields describe the converged configuration when it was.
	Found bool
	// Config is the converged precision assignment.
	Config Config
	// Speedup is the modelled speedup over the original program.
	Speedup float64
	// Error is the verified quality loss.
	Error float64
	// Evaluated counts the configurations built and tested (the paper's
	// EV metric).
	Evaluated int
	// TimedOut reports budget expiry before the strategy terminated.
	TimedOut bool
	// Canceled reports that the tuning context was canceled before the
	// strategy terminated; the result is the best found so far.
	Canceled bool
	// Energy is the modelled energy per run of the converged
	// configuration in joules.
	Energy float64
	// Front is the Pareto front over every evaluated configuration
	// (only under the pareto objective): deterministic,
	// worker-count-invariant, sorted by configuration key, each point
	// carrying modelled time, energy, and verified error.
	Front []search.ParetoPoint
	// Trace is the per-configuration log (only when TuneOptions.Trace).
	Trace []search.TraceEntry
}

// Tune searches b for a mixed-precision configuration that passes the
// quality threshold and speeds the program up, using the named strategy.
func Tune(b BenchmarkProgram, opts TuneOptions) (TuneResult, error) {
	return TuneContext(context.Background(), b, opts)
}

// TuneContext is Tune under a cancellation context: once ctx is done the
// strategy stops at its next evaluation boundary and the result carries
// the best configuration found so far with Canceled set. A background
// (or never-canceled) context leaves the result identical to Tune.
func TuneContext(ctx context.Context, b BenchmarkProgram, opts TuneOptions) (TuneResult, error) {
	if opts.Algorithm == "" {
		return TuneResult{}, fmt.Errorf("mixpbench: TuneOptions.Algorithm is required (one of %v)", Algorithms())
	}
	name, err := harness.CanonicalAlgorithm(opts.Algorithm)
	if err != nil {
		return TuneResult{}, err
	}
	if !(opts.Threshold >= 0) || math.IsInf(opts.Threshold, 1) {
		return TuneResult{}, fmt.Errorf("mixpbench: TuneOptions.Threshold must be a finite number >= 0, got %g", opts.Threshold)
	}
	if opts.Threshold == 0 {
		opts.Threshold = harness.DefaultThreshold
	}
	if opts.Seed == 0 {
		opts.Seed = report.Seed
	}
	algo, err := search.ByName(name, opts.Seed)
	if err != nil {
		return TuneResult{}, err
	}
	ladder, err := mp.ParseLadder(opts.Precisions)
	if err != nil {
		return TuneResult{}, fmt.Errorf("mixpbench: %w", err)
	}
	objective, err := search.ParseObjective(opts.Objective)
	if err != nil {
		return TuneResult{}, fmt.Errorf("mixpbench: %w", err)
	}
	space := search.NewSpaceWithLadder(b.Graph(), algo.Mode(), ladder)
	runner := bench.NewRunner(opts.Seed)
	runner.Telemetry = opts.Telemetry
	runner.Cache = opts.Cache
	eval := search.NewEvaluator(space, runner, b, opts.Threshold)
	eval.SetObjective(objective)
	if opts.BudgetSeconds > 0 {
		eval.SetBudget(opts.BudgetSeconds)
	}
	eval.SetTrace(opts.Trace)
	eval.SetTelemetry(opts.Telemetry)
	if ctx != nil {
		eval.SetContext(ctx)
	}
	out := algo.Search(eval)
	res := TuneResult{
		Found:     out.Found,
		Evaluated: out.Evaluated,
		TimedOut:  out.TimedOut,
		Canceled:  out.Canceled,
		Trace:     eval.Trace(),
	}
	if out.Found {
		cfg, _ := space.Expand(out.Best, name == "CM")
		res.Config = cfg
		res.Speedup = out.BestResult.Speedup
		res.Error = out.BestResult.Verdict.Error
		res.Energy = out.BestResult.Energy
	}
	if objective == search.ObjectivePareto {
		res.Front = eval.ParetoFront()
	}
	return res, nil
}

// RunStudy regenerates the paper's full evaluation: Tables III, IV, V and
// the data behind Figures 2a, 2b, and 3. It is expensive (the equivalent
// of the paper's multi-day cluster campaign, compressed to under a
// minute); progress, when non-nil, receives one line per completed stage.
func RunStudy(workers int, progress func(string)) *Study {
	return report.Run(report.Options{Workers: workers, Progress: progress})
}

// ParseHarnessConfig parses a YAML harness configuration (the paper's
// Listing 4 format) into benchmark entries.
func ParseHarnessConfig(src string) ([]HarnessSpec, error) {
	return harness.ParseConfig(src)
}

// ParseHarnessCampaign parses a YAML harness configuration keeping the
// reserved top-level faults clause (fault rates, retry policy) alongside
// the benchmark entries.
func ParseHarnessCampaign(src string) (HarnessCampaign, error) {
	return harness.ParseCampaign(src)
}

// ParseFaultSpec parses a CLI-style fault specification such as
// "transient=0.2,crash=0.05,slowdown=4,seed=7" into a validated plan.
func ParseFaultSpec(spec string) (FaultPlan, error) {
	return faults.ParseSpec(spec)
}

// CampaignOptions parameterises RunCampaign: HarnessOptions plus the
// fault model, retry policy, and checkpoint/resume paths.
type CampaignOptions = harness.CampaignOptions

// Campaign engine types. An Engine multiplexes any number of campaigns
// over one process - each under its own cancellation context, telemetry
// recorder, and event log, all sharing a single run cache - with
// submit/status/cancel semantics and a bounded queue. The cmd/mixpd
// server is an HTTP facade over exactly this API.
type (
	// Engine is the concurrent campaign service.
	Engine = engine.Engine
	// EngineOptions configures an Engine (queue depth, concurrency,
	// shared cache).
	EngineOptions = engine.Options
	// SubmitOptions parameterises one campaign submission.
	SubmitOptions = engine.SubmitOptions
	// CampaignStatus is a point-in-time view of one campaign.
	CampaignStatus = engine.Status
	// CampaignState is a campaign's lifecycle position (queued, running,
	// done, canceled, failed).
	CampaignState = engine.State
	// CampaignEventLog is a campaign's tailable telemetry event log.
	CampaignEventLog = engine.EventLog
	// CampaignRecord is one finished job in the JSON-safe journal shape
	// the engine's results API and the checkpoint journal share.
	CampaignRecord = harness.JournalRecord
)

// Engine sentinel errors, for errors.Is against Submit and lookups.
var (
	// ErrCampaignQueueFull rejects a submission when the engine's queue
	// is at capacity.
	ErrCampaignQueueFull = engine.ErrQueueFull
	// ErrEngineDraining rejects submissions after Drain or Close began.
	ErrEngineDraining = engine.ErrDraining
	// ErrCampaignNotFound reports an unknown campaign ID.
	ErrCampaignNotFound = engine.ErrNotFound
)

// NewEngine starts a campaign engine; stop it with Drain (finish
// everything accepted) or Close (cancel everything).
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// RunCampaign executes a fault-tolerant campaign over the specs and
// returns per-job results (reports, attempt histories, degraded flags)
// in entry order. Unlike RunHarnessWith, a failing job does not abort
// the campaign; inspect each result's Err. The workload seed defaults to
// the canonical study seed.
func RunCampaign(specs []HarnessSpec, opts CampaignOptions) ([]HarnessJobResult, error) {
	return RunCampaignContext(context.Background(), specs, opts)
}

// RunCampaignContext is RunCampaign under a cancellation context: once
// ctx is done, in-flight jobs report canceled best-so-far analyses and
// unstarted jobs come back Skipped, their errors wrapping ctx's cause.
// An empty spec list is an error.
func RunCampaignContext(ctx context.Context, specs []HarnessSpec, opts CampaignOptions) ([]HarnessJobResult, error) {
	if len(specs) == 0 {
		return nil, errors.New("mixpbench: campaign has no benchmark entries")
	}
	if opts.Seed == 0 {
		opts.Seed = report.Seed
	}
	return harness.RunCampaignContext(ctx, specs, opts)
}

// HarnessOptions parameterises RunHarnessWith.
type HarnessOptions struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// Seed is the workload seed (0 = the canonical study seed).
	Seed int64
	// Telemetry, when non-nil, receives the campaign's metrics and a
	// deterministic event stream: per-job telemetry is merged in entry
	// order, so snapshots are byte-identical under any worker count.
	Telemetry *Telemetry
	// Cache, when non-nil, is shared by every job of the run; when nil a
	// run-private cache is created, so configuration executions shared
	// between jobs run once.
	Cache *RunCache
}

// RunHarness resolves and executes every entry of a harness configuration
// on a worker pool, returning reports in entry order.
func RunHarness(specs []HarnessSpec, workers int, seed int64) ([]HarnessReport, error) {
	return RunHarnessWith(specs, HarnessOptions{Workers: workers, Seed: seed})
}

// RunHarnessWith is RunHarness with the full option set. It runs the
// entries as one campaign (see RunCampaign) and fails on the first entry
// whose job failed.
func RunHarnessWith(specs []HarnessSpec, opts HarnessOptions) ([]HarnessReport, error) {
	return RunHarnessContext(context.Background(), specs, opts)
}

// RunHarnessContext is RunHarnessWith under a cancellation context. A
// canceled run surfaces the first interrupted entry's error, like any
// other failing entry.
func RunHarnessContext(ctx context.Context, specs []HarnessSpec, opts HarnessOptions) ([]HarnessReport, error) {
	results, err := RunCampaignContext(ctx, specs, CampaignOptions{
		Workers:   opts.Workers,
		Seed:      opts.Seed,
		Telemetry: opts.Telemetry,
		Cache:     opts.Cache,
	})
	if err != nil {
		return nil, err
	}
	out := make([]HarnessReport, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("mixpbench: entry %q: %w", specs[i].Name, r.Err)
		}
		out[i] = r.Report
	}
	return out, nil
}

// RegisterAnalysis installs a custom harness analysis plugin.
func RegisterAnalysis(a harness.Analysis) { harness.RegisterAnalysis(a) }

// Campaign tracing types. A campaign's trace is a deterministic span
// tree - campaign → job → attempt → phases (build, run, straggler,
// backoff) - on the simulated analysis clock: the exported bytes are
// identical at any worker count and with the run cache on or off.
type (
	// CampaignTrace is one campaign's assembled span tree.
	CampaignTrace = trace.Trace
	// TraceSpan is one node of a campaign trace.
	TraceSpan = trace.Span
	// TraceProfile is the per-phase / critical-path aggregation of a
	// campaign trace.
	TraceProfile = trace.Profile
)

// BuildCampaignTrace assembles the deterministic span tree of a
// finished campaign from its specs and results (see RunCampaign).
func BuildCampaignTrace(name string, specs []HarnessSpec, results []HarnessJobResult) *CampaignTrace {
	return harness.BuildTrace(name, specs, results)
}

// BuildTraceProfile aggregates a campaign trace into its per-phase and
// critical-path profile; topN caps the job table (<=0 keeps all jobs).
func BuildTraceProfile(t *CampaignTrace, topN int) *TraceProfile {
	return trace.BuildProfile(t, topN)
}

// WriteChromeTrace serialises a campaign trace as Chrome trace_event
// JSON, loadable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *CampaignTrace) error {
	return trace.WriteChromeTrace(w, t)
}

// WriteTraceJSONL serialises a campaign trace as one span per line,
// depth-first.
func WriteTraceJSONL(w io.Writer, t *CampaignTrace) error {
	return trace.WriteJSONL(w, t)
}

// WriteTraceProfile serialises a trace profile as indented JSON.
func WriteTraceProfile(w io.Writer, p *TraceProfile) error {
	return trace.WriteProfile(w, p)
}

// WriteTraceProfileText renders a trace profile as a human-readable
// table: per-phase totals, then the critical-path jobs.
func WriteTraceProfileText(w io.Writer, p *TraceProfile) error {
	return trace.WriteProfileText(w, p)
}

// ValidateChromeTrace checks that r holds schema-conformant Chrome
// trace_event JSON (object format, well-nested complete events).
func ValidateChromeTrace(r io.Reader) error { return trace.ValidateChrome(r) }

// ValidateTraceOutputs validates CLI-style export paths (flag name →
// path): paths must be non-empty and pairwise distinct.
func ValidateTraceOutputs(paths map[string]string) error {
	return trace.ValidateOutputPaths(paths)
}

// CreateTraceOutput creates an export file, making parent directories
// as needed.
func CreateTraceOutput(path string) (*os.File, error) { return trace.CreateOutput(path) }

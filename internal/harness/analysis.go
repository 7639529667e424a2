package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/mp"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// Job is one deployed analysis: a benchmark plus the analysis parameters
// from its configuration entry.
type Job struct {
	Spec      Spec
	Benchmark bench.Benchmark
	// Ctx, when non-nil, cancels the analysis: the evaluator checks it
	// between runs and the strategy stops with its best-so-far, reported
	// as a canceled outcome. The scheduler installs the campaign context
	// here; a plugin should thread it into its evaluator via SetContext.
	Ctx context.Context //mixplint:ignore ctxfirst -- Job is a data record crossing the scheduler boundary; the campaign context rides in it so plugin strategies can install it via SetContext
	// Seed drives the workload and all analysis randomness.
	Seed int64
	// BudgetSeconds caps the analysis (simulated seconds); zero means the
	// paper's 24-hour default.
	BudgetSeconds float64
	// Telemetry receives the job's evaluation metrics and events (nil =
	// off). The scheduler installs a private per-job recorder here; a
	// plugin should thread it into whatever evaluators and runners it
	// builds.
	Telemetry *telemetry.Recorder
	// FailAtEvaluation, when positive, makes the attempt die with a
	// transient fault at that paid evaluation (the scheduler sets it from
	// the fault injector's draw). A plugin should forward it to its
	// evaluator; an analysis that finishes earlier outruns the fault.
	FailAtEvaluation int
	// Cache, when non-nil, is the campaign-wide run cache (the scheduler
	// installs the shared instance here). A plugin should set it on every
	// bench.Runner it builds: distinct jobs searching the same benchmark
	// propose overlapping configurations, and the cache lets the whole
	// campaign execute each distinct configuration once. Results are pure
	// functions of their cache key and simulated time is charged on hits
	// exactly as on misses, so reports and telemetry are unchanged by
	// sharing.
	Cache *bench.Cache
	// Compiler, when non-nil, is the campaign-wide compiler (the
	// scheduler installs the shared instance here). A plugin should set it
	// on every bench.Runner it builds so the campaign's jobs share tape
	// pools and recorded input streams; nil falls back to the
	// process-wide shared compiler.
	Compiler *compile.Compiler
}

// Report is what an analysis returns for one job: the paper's three
// metrics plus the raw outcome.
type Report struct {
	Benchmark string
	Algorithm string
	Threshold float64
	// Evaluated is the EV metric.
	Evaluated int
	// SpentSeconds is the simulated analysis time the job consumed (the
	// budget accounting the paper's Table V timeout cells rest on); the
	// scheduler's job spans are built from it.
	SpentSeconds float64
	// BuildSeconds and RunSeconds split SpentSeconds into its build
	// (transformation + recompilation) and measured-execution phases;
	// they sum exactly to SpentSeconds as the analysis charged it (a
	// straggler fault later inflates the attempt's spend, not these).
	// The trace layer's phase spans are assembled from them.
	BuildSeconds float64
	RunSeconds   float64
	// CacheHits counts evaluator-memo hits (free re-proposals), a pure
	// function of the search sequence.
	CacheHits int
	// Speedup is the SU metric for the configuration the analysis
	// converged to (1.0 when nothing was found).
	Speedup float64
	// Quality is the AC metric: the error of the chosen configuration
	// (NaN marks destroyed output, 0 marks no conversion).
	Quality float64
	// Found and TimedOut qualify the run; a timed-out report renders as
	// the paper's empty grey cell.
	Found    bool
	TimedOut bool
	// Canceled marks an analysis stopped by context cancellation (user
	// abort, service shutdown, deadline). The report still carries the
	// best-so-far the strategy had when the context fired.
	Canceled bool
	// Demoted counts variables converted below the working precision
	// (all singles on the default ladder).
	Demoted int
	// Energy is the modelled energy per run of the chosen configuration
	// in joules (the baseline's energy when nothing was found, zero when
	// the analysis never measured a baseline).
	Energy float64
	// Precisions names the campaign ladder (empty: the default
	// double/single study).
	Precisions string
	// Objective names the analysis objective ("threshold" or "pareto").
	Objective string
	// Front is the Pareto front over every evaluated configuration,
	// recorded only under the pareto objective: deterministic,
	// worker-count-invariant, sorted by configuration key.
	Front []search.ParetoPoint
	// Config is the converged precision assignment (nil when nothing was
	// found) - the analysis artifact, the analog of the transformed
	// executable the original harness returns a path to.
	Config bench.Config
	// Clusters and Variables record the Table II complexity metrics.
	Clusters  int
	Variables int
}

// Analysis is the harness plugin interface: implementing it and
// registering the implementation makes a new analysis technique available
// to every benchmark entry, mirroring the Python harness's class-based
// plugins.
type Analysis interface {
	// Name is the plugin name configuration files select (the analysis
	// clause's "name" field).
	Name() string
	// Analyze runs the technique on one deployed benchmark.
	Analyze(job Job) (Report, error)
}

var (
	pluginMu sync.RWMutex
	plugins  = map[string]Analysis{}
)

// RegisterAnalysis installs a plugin; a duplicate name panics, as plugin
// registration happens at program start and a collision is a bug.
func RegisterAnalysis(a Analysis) {
	pluginMu.Lock()
	defer pluginMu.Unlock()
	if _, dup := plugins[a.Name()]; dup {
		panic(fmt.Sprintf("harness: duplicate analysis plugin %q", a.Name()))
	}
	plugins[a.Name()] = a
}

// LookupAnalysis resolves a plugin by name.
func LookupAnalysis(name string) (Analysis, error) {
	pluginMu.RLock()
	defer pluginMu.RUnlock()
	a, ok := plugins[name]
	if !ok {
		names := make([]string, 0, len(plugins))
		for n := range plugins {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("harness: unknown analysis %q (registered: %v)", name, names)
	}
	return a, nil
}

// FloatSmith is the built-in analysis plugin: source-level mixed-precision
// search over the FloatSmith/CRAFT/Typeforge stack, the tool the paper
// evaluates. The configuration's algorithm field selects the strategy.
type FloatSmith struct{}

// Name returns "floatSmith".
func (FloatSmith) Name() string { return "floatSmith" }

// Analyze runs the selected search strategy and assembles the report.
func (FloatSmith) Analyze(job Job) (Report, error) {
	algoName, err := CanonicalAlgorithm(job.Spec.Analysis.Algorithm)
	if err != nil {
		return Report{}, err
	}
	algo, err := search.ByName(algoName, gaSeed(job))
	if err != nil {
		return Report{}, err
	}
	g := job.Benchmark.Graph()
	ladder := job.Spec.Analysis.Precisions
	if ladder == nil {
		ladder = mp.DefaultLadder()
	}
	space := search.NewSpaceWithLadder(g, algo.Mode(), ladder)
	runner := bench.NewRunner(job.Seed)
	runner.Telemetry = job.Telemetry
	runner.Cache = job.Cache
	runner.Compiler = job.Compiler
	eval := search.NewEvaluator(space, runner, job.Benchmark, job.Spec.Analysis.Threshold)
	eval.SetObjective(job.Spec.Analysis.Objective)
	if job.BudgetSeconds > 0 {
		eval.SetBudget(job.BudgetSeconds)
	}
	if job.Ctx != nil {
		eval.SetContext(job.Ctx)
	}
	eval.SetTelemetry(job.Telemetry)
	if job.FailAtEvaluation > 0 {
		eval.SetFailAt(job.FailAtEvaluation)
	}
	out := algo.Search(eval)

	rep := Report{
		Benchmark:    job.Benchmark.Name(),
		Algorithm:    algoName,
		Threshold:    job.Spec.Analysis.Threshold,
		Evaluated:    out.Evaluated,
		SpentSeconds: eval.Spent(),
		BuildSeconds: eval.BuildSpent(),
		RunSeconds:   eval.RunSpent(),
		CacheHits:    eval.CacheHits(),
		Speedup:      1.0,
		Quality:      0,
		Found:        out.Found,
		TimedOut:     out.TimedOut,
		Canceled:     out.Canceled,
		Energy:       eval.Reference().Energy,
		Objective:    job.Spec.Analysis.Objective.String(),
		Clusters:     g.NumClusters(),
		Variables:    g.NumVars(),
	}
	if job.Spec.Analysis.Precisions != nil {
		rep.Precisions = job.Spec.Analysis.Precisions.String()
	}
	if job.Spec.Analysis.Objective == search.ObjectivePareto {
		rep.Front = eval.ParetoFront()
	}
	if out.Err != nil {
		// The attempt died mid-search (a transient fault). Return the
		// partial report alongside the error: its SpentSeconds is the
		// lost work the scheduler charges to the simulated clock before
		// retrying.
		return rep, out.Err
	}
	if out.Found {
		rep.Speedup = out.BestResult.Speedup
		rep.Quality = out.BestResult.Verdict.Error
		rep.Energy = out.BestResult.Energy
		cfg, _ := space.Expand(out.Best, algoName == "CM")
		rep.Demoted = cfg.Demoted()
		rep.Config = cfg
	}
	if (rep.TimedOut || rep.Canceled) && !rep.Found {
		rep.Speedup = math.NaN()
		rep.Quality = math.NaN()
	}
	if out.Canceled {
		// Cancellation is job-fatal but campaign-benign: the scheduler
		// marks the job canceled (no retry - the context is gone) and the
		// other tenants' jobs continue undisturbed.
		return rep, fmt.Errorf("harness: %s/%s canceled after %d evaluations: %w",
			job.Benchmark.Name(), algoName, out.Evaluated, context.Canceled)
	}
	return rep, nil
}

// gaSeed mixes the job identity into the strategy seed so repeated runs
// are reproducible but distinct jobs decorrelate. Non-default ladders and
// objectives join the mix; default campaigns hash exactly the historical
// bytes, so their strategy seeds - and hence their GA walks - are
// unchanged.
func gaSeed(job Job) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%g/%d", job.Benchmark.Name(), job.Spec.Analysis.Algorithm,
		job.Spec.Analysis.Threshold, job.Seed)
	if job.Spec.Analysis.Precisions != nil {
		fmt.Fprintf(h, "/%s", job.Spec.Analysis.Precisions)
	}
	if job.Spec.Analysis.Objective != search.ObjectiveThreshold {
		fmt.Fprintf(h, "/%s", job.Spec.Analysis.Objective)
	}
	return int64(h.Sum64())
}

func init() {
	RegisterAnalysis(FloatSmith{})
}

package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bench"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// ErrBudgetExhausted reports that an evaluation would exceed the analysis
// time budget (the paper's 24-hour wall-clock limit per application and
// algorithm). Strategies stop where they are and report a timeout.
var ErrBudgetExhausted = errors.New("search: analysis time budget exhausted")

// ErrCanceled reports that the analysis context was canceled (a user
// abort, a service shutdown, or a deadline). It rides the same stop-error
// path as ErrBudgetExhausted - strategies stop where they are - but the
// outcome is reported as Canceled, not TimedOut: the budget accounting is
// untouched, the analysis just ends with its best-so-far.
var ErrCanceled = errors.New("search: analysis canceled")

// ErrTransient reports a transient evaluation failure: the node running
// the analysis died mid-evaluation (an injected fault, or a crashed
// worker in a future distributed backend). Unlike ErrBudgetExhausted it
// is retryable - the attempt's work is lost, but a fresh attempt of the
// same job may complete. The harness retries jobs whose error wraps it.
var ErrTransient = errors.New("search: transient evaluation failure")

// Result is everything a strategy learns about one configuration.
type Result struct {
	// Valid reports whether the configuration compiled. Variable-level
	// strategies can propose cluster-splitting selections; those fail
	// without running.
	Valid bool
	// Verdict carries the quality check (zero value when !Valid).
	Verdict verify.Verdict
	// Speedup is baseline time over configuration time, the paper's SU.
	Speedup float64
	// Energy is the configuration's modelled energy per run in joules
	// (zero when !Valid).
	Energy float64
	// Passed is the bottom line: the configuration compiled, ran, and met
	// the quality threshold.
	Passed bool
}

// Objective selects what an analysis optimises.
type Objective uint8

const (
	// ObjectiveThreshold is the paper's mode: maximise speedup subject to
	// the quality threshold.
	ObjectiveThreshold Objective = iota
	// ObjectivePareto additionally records every valid evaluation as a
	// (time, energy, error) point and exposes the non-dominated front;
	// the threshold still steers the strategies' accept/reject decisions.
	ObjectivePareto
)

// String returns the objective's configuration-grammar name.
func (o Objective) String() string {
	if o == ObjectivePareto {
		return "pareto"
	}
	return "threshold"
}

// ParseObjective parses an objective clause; the empty string is the
// default threshold objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "threshold":
		return ObjectiveThreshold, nil
	case "pareto":
		return ObjectivePareto, nil
	default:
		return ObjectiveThreshold, fmt.Errorf("search: unknown objective %q (want threshold or pareto)", s)
	}
}

// ParetoPoint is one configuration's coordinates in objective space.
type ParetoPoint struct {
	// Config is the expanded variable-level configuration key.
	Config string `json:"config"`
	// Time is the measured (trimmed-mean) run time in seconds.
	Time float64 `json:"time_seconds"`
	// Energy is the modelled energy per run in joules.
	Energy float64 `json:"energy_joules"`
	// Error is the verification error against the baseline output.
	Error float64 `json:"error"`
	// Speedup is baseline time over configuration time.
	Speedup float64 `json:"speedup"`
}

// Evaluator runs configurations for one (benchmark, threshold) pair. It is
// the reproduction of the FloatSmith evaluation pipeline: build the
// variant, run it the protocol's ten times, verify the output, and account
// the spent time against the analysis budget.
type Evaluator struct {
	space     *Space
	runner    *bench.Runner
	benchmark bench.Benchmark
	threshold float64

	// ctx, when non-nil, is checked between runs: once it is done every
	// further Evaluate returns ErrCanceled, so the strategy stops on its
	// normal stop-error path with its best-so-far intact.
	ctx context.Context //mixplint:ignore ctxfirst -- strategies drive the evaluator through fixed callback signatures that cannot take a context; SetContext installs it for between-run cancellation checks

	// typeforgeExpand controls whether unit selections pull whole
	// type-change sets (see Space.Expand).
	typeforgeExpand bool

	// objective selects threshold-only or Pareto-front recording; pareto
	// holds the recorded points in paid-evaluation order, refPoint the
	// baseline's coordinates.
	objective Objective
	pareto    []ParetoPoint
	refPoint  ParetoPoint

	// Budget accounting, in simulated seconds. buildSpent is the portion
	// of spent charged to configuration builds; the run portion is
	// derived as spent-buildSpent so the two phases always sum exactly
	// to spent (no separate accumulation drift).
	budget     float64
	spent      float64
	buildSpent float64
	buildCost  float64

	reference bench.Result
	cache     map[string]Result
	evaluated int
	memoHits  int

	// keyBuf is scratch for configuration keys: a cache probe writes the
	// key here and indexes the map with string(keyBuf), which the compiler
	// compiles without allocating. Hits - the bulk of a long analysis -
	// therefore cost no garbage; the string is materialised only to store
	// a new entry or feed telemetry.
	keyBuf []byte

	// failAt, when positive, makes paid evaluation number failAt die with
	// ErrTransient (fault injection).
	failAt int

	// cancelSeen dedupes the cancellation telemetry: one event per
	// analysis no matter how many Evaluate calls observe the done context.
	cancelSeen bool

	traceOn bool
	trace   []TraceEntry

	// tel receives per-evaluation metrics and events (nil = off).
	tel *telemetry.Recorder
}

// TraceEntry records one evaluated configuration in evaluation order, the
// equivalent of CRAFT's per-configuration log. Cache hits do not appear:
// the trace is the sequence of builds the analysis actually paid for.
type TraceEntry struct {
	// Seq is the 1-based evaluation index (equals the EV counter at the
	// time of evaluation).
	Seq int
	// Config is the expanded variable-level configuration key (one symbol
	// per variable: 0=double 1=single on the default ladder, further
	// rung digits and custom-format escapes on wider ladders).
	Config string
	// Singles is the number of variables below the working precision
	// (historically all singles, hence the name).
	Singles int
	// Result is the evaluation outcome.
	Result Result
	// SpentSeconds is the cumulative simulated analysis time after this
	// evaluation.
	SpentSeconds float64
}

// Budget and cost defaults reproducing the paper's experimental setup.
const (
	// DefaultBudgetSeconds is the paper's per-analysis limit: 24 hours.
	DefaultBudgetSeconds = 24 * 60 * 60
	// DefaultBuildSeconds charges each new configuration for its
	// Typeforge transformation and recompilation.
	DefaultBuildSeconds = 30
)

// NewEvaluator builds an evaluator over space with the paper's default
// budget. The baseline (all-double) measurement is taken immediately and
// charged against the budget like any other configuration. The evaluator
// only reads run outputs and profiles, so it takes every run, the
// baseline included, through Runner.RunShared: no result is copied out of
// the run cache.
func NewEvaluator(space *Space, runner *bench.Runner, b bench.Benchmark, threshold float64) *Evaluator {
	e := &Evaluator{
		space:     space,
		runner:    runner,
		benchmark: b,
		threshold: threshold,
		budget:    DefaultBudgetSeconds,
		buildCost: DefaultBuildSeconds,
		cache:     make(map[string]Result),
	}
	// A nil context never cancels, so RunShared cannot fail here.
	e.reference, _ = runner.RunShared(nil, b, nil)
	e.spent += e.buildCost + e.reference.Measured.Total
	e.buildSpent += e.buildCost
	// The all-double selection IS the baseline: seed the cache so
	// strategies that propose it (GA's random draws, DD's empty result)
	// get it for free, as CRAFT does.
	emptyCfg, _ := space.Expand(NewSet(space.NumUnits()), false)
	e.cache[emptyCfg.Key()] = Result{
		Valid:   true,
		Verdict: verify.Verdict{Error: 0, Passed: true},
		Speedup: 1.0,
		Energy:  e.reference.Energy,
		Passed:  true,
	}
	e.refPoint = ParetoPoint{
		Config:  emptyCfg.Key(),
		Time:    e.reference.Measured.Mean,
		Energy:  e.reference.Energy,
		Error:   0,
		Speedup: 1.0,
	}
	return e
}

// SetObjective selects the analysis objective. Under ObjectivePareto
// every paid valid evaluation is also recorded as a ParetoPoint; the
// threshold objective records nothing and is byte-identical to the
// pre-objective evaluator.
func (e *Evaluator) SetObjective(o Objective) { e.objective = o }

// Objective returns the analysis objective.
func (e *Evaluator) Objective() Objective { return e.objective }

// ParetoFront returns the non-dominated front over every recorded point
// plus the baseline, minimising (time, energy, error) simultaneously.
// Points whose error is NaN (destroyed output) are excluded. The front is
// sorted by configuration key, and - because points are recorded once per
// distinct configuration in deterministic job order - it is invariant to
// worker count and scheduling. Empty under ObjectiveThreshold unless no
// evaluations ran (the baseline alone is then the front under pareto).
func (e *Evaluator) ParetoFront() []ParetoPoint {
	if e.objective != ObjectivePareto {
		return nil
	}
	points := make([]ParetoPoint, 0, len(e.pareto)+1)
	points = append(points, e.refPoint)
	for _, p := range e.pareto {
		if math.IsNaN(p.Error) {
			continue
		}
		points = append(points, p)
	}
	var front []ParetoPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Config < front[j].Config })
	return front
}

// dominates reports whether q is at least as good as p on every
// objective and strictly better on one, minimising time, energy, and
// error. Ties on all three leave both points on the front (distinct
// configurations with identical coordinates are both reported).
func dominates(q, p ParetoPoint) bool {
	if q.Time > p.Time || q.Energy > p.Energy || q.Error > p.Error {
		return false
	}
	return q.Time < p.Time || q.Energy < p.Energy || q.Error < p.Error
}

// SetBudget overrides the analysis budget (seconds of simulated time).
func (e *Evaluator) SetBudget(seconds float64) { e.budget = seconds }

// SetContext attaches a cancellation context. Evaluate checks it between
// runs and returns ErrCanceled once it is done; singleflight waits on a
// shared run cache also unblock early. A nil (or never-canceled) context
// leaves every result, budget charge, and trace byte-identical to an
// evaluator without one.
func (e *Evaluator) SetContext(ctx context.Context) { e.ctx = ctx }

// SetFailAt arranges for paid evaluation number n (1-based; cache hits
// are free and do not count) to fail with ErrTransient, modelling a node
// fault striking mid-analysis. The dying evaluation's build time is
// charged as lost work. An analysis that finishes before evaluation n
// dodges the fault. Zero disables injection.
func (e *Evaluator) SetFailAt(n int) { e.failAt = n }

// SetTypeforgeExpand switches unit selections to pull whole type-change
// sets (used by the compositional strategies; see the package comment).
func (e *Evaluator) SetTypeforgeExpand(on bool) { e.typeforgeExpand = on }

// SetTrace enables per-configuration trace recording (off by default; the
// trace of a budget-length analysis holds a few thousand entries).
func (e *Evaluator) SetTrace(on bool) { e.traceOn = on }

// SetTelemetry attaches a recorder: every subsequent evaluation updates
// the search metrics (evaluations, cache hits, invalid builds, speedup
// distribution, budget-fraction gauge) and emits one "evaluation" event.
// All series carry a bench label. A nil recorder switches telemetry off.
func (e *Evaluator) SetTelemetry(tel *telemetry.Recorder) {
	e.tel = tel
	if tel == nil {
		return
	}
	tel.Emit("search_start", map[string]any{
		"bench":                  e.benchmark.Name(),
		"threshold":              e.threshold,
		"budget_seconds":         e.budget,
		"spent_seconds":          e.spent,
		"reference_mean_seconds": e.reference.Measured.Mean,
	})
	tel.Gauge("mixpbench_search_budget_fraction", "bench", e.benchmark.Name()).Set(e.spent / e.budget)
}

// Trace returns a copy of the recorded evaluations in order. Mutating the
// returned slice cannot corrupt the evaluator's own record.
func (e *Evaluator) Trace() []TraceEntry {
	out := make([]TraceEntry, len(e.trace))
	copy(out, e.trace)
	return out
}

// Space returns the search space.
func (e *Evaluator) Space() *Space { return e.space }

// Threshold returns the quality threshold configurations must meet.
func (e *Evaluator) Threshold() float64 { return e.threshold }

// Reference returns the baseline (all-double) measurement. Its
// Output.Values and Profile are shared with the run cache and must not be
// mutated.
func (e *Evaluator) Reference() bench.Result { return e.reference }

// Evaluated returns the paper's EV metric: the number of distinct
// configurations built and tested so far (cache hits are free, exactly as
// CRAFT memoises repeated proposals).
func (e *Evaluator) Evaluated() int { return e.evaluated }

// Spent returns the simulated analysis seconds consumed.
func (e *Evaluator) Spent() float64 { return e.spent }

// BuildSpent returns the portion of Spent charged to configuration
// builds (Typeforge transformation + recompilation).
func (e *Evaluator) BuildSpent() float64 { return e.buildSpent }

// RunSpent returns the portion of Spent charged to measured executions.
// It is derived as Spent-BuildSpent, so BuildSpent+RunSpent == Spent
// holds exactly - the identity the trace layer's phase tiling relies
// on.
func (e *Evaluator) RunSpent() float64 { return e.spent - e.buildSpent }

// CacheHits returns the number of proposals served from the evaluator's
// memo (free re-evaluations). The count is a pure function of the
// search sequence, hence deterministic, unlike the shared run cache's
// scheduling-dependent hit attribution.
func (e *Evaluator) CacheHits() int { return e.memoHits }

// Key returns the canonical identity of the configuration a selection
// expands to. Distinct selections can share a configuration (variable
// selections within one type-change set expand identically); strategies
// that enumerate compositions must dedupe by this key, or they wander
// forever through cost-free cache hits.
func (e *Evaluator) Key(set Set) string {
	cfg, _ := e.space.Expand(set, e.typeforgeExpand)
	return cfg.Key()
}

// Evaluate builds, runs, and verifies one unit selection. It returns
// ErrBudgetExhausted once the analysis budget is gone; every other path
// yields a Result (an invalid selection is a non-passing Result, not an
// error).
func (e *Evaluator) Evaluate(set Set) (Result, error) {
	if set.Len() != e.space.NumUnits() {
		return Result{}, fmt.Errorf("search: selection over %d units, space has %d", set.Len(), e.space.NumUnits())
	}
	if err := e.canceled(); err != nil {
		return Result{}, err
	}
	cfg, valid := e.space.Expand(set, e.typeforgeExpand)
	e.keyBuf = cfg.AppendKey(e.keyBuf[:0])
	if r, ok := e.cache[string(e.keyBuf)]; ok {
		e.memoHits++
		if e.tel != nil {
			e.observe(string(e.keyBuf), cfg.Demoted(), r, true)
		}
		return r, nil
	}
	key := string(e.keyBuf)
	if e.spent >= e.budget {
		if e.tel != nil {
			e.tel.Counter("mixpbench_search_budget_exhausted_total", "bench", e.benchmark.Name()).Inc()
			e.tel.Emit("budget_exhausted", map[string]any{
				"bench":          e.benchmark.Name(),
				"spent_seconds":  e.spent,
				"budget_seconds": e.budget,
				"evaluations":    e.evaluated,
			})
		}
		return Result{}, ErrBudgetExhausted
	}
	if e.failAt > 0 && e.evaluated+1 >= e.failAt {
		// The node dies during this evaluation: its build time is lost
		// and no result comes back.
		e.spent += e.buildCost
		e.buildSpent += e.buildCost
		if e.tel != nil {
			e.tel.Counter("mixpbench_search_transient_faults_total", "bench", e.benchmark.Name()).Inc()
			e.tel.Emit("transient_fault", map[string]any{
				"bench":         e.benchmark.Name(),
				"evaluation":    e.evaluated + 1,
				"spent_seconds": e.spent,
			})
		}
		return Result{}, fmt.Errorf("search: %s: node fault during evaluation %d: %w",
			e.benchmark.Name(), e.evaluated+1, ErrTransient)
	}
	e.evaluated++
	if !valid {
		// The variant does not compile: the build time is lost, nothing
		// runs.
		e.spent += e.buildCost
		e.buildSpent += e.buildCost
		r := Result{Valid: false}
		e.cache[key] = r
		e.record(key, cfg.Demoted(), r)
		e.observe(key, cfg.Demoted(), r, false)
		return r, nil
	}
	res, err := e.runner.RunShared(e.ctx, e.benchmark, cfg)
	if err != nil {
		// The only error path is a context canceled while waiting on a
		// shared cache's in-flight execution: undo the EV charge (the run
		// never completed for this analysis) and stop.
		e.evaluated--
		return Result{}, e.cancelError(err)
	}
	e.spent += e.buildCost + res.Measured.Total
	e.buildSpent += e.buildCost
	v, err := verify.Check(e.benchmark.Metric(), e.reference.Output.Values, res.Output.Values, e.threshold)
	if err != nil {
		return Result{}, fmt.Errorf("search: verifying %s: %w", e.benchmark.Name(), err)
	}
	r := Result{
		Valid:   true,
		Verdict: v,
		Speedup: e.reference.Measured.Mean / res.Measured.Mean,
		Energy:  res.Energy,
		Passed:  v.Passed,
	}
	if e.objective == ObjectivePareto {
		// One point per distinct configuration: repeats are memo hits and
		// never reach this paid path.
		e.pareto = append(e.pareto, ParetoPoint{
			Config:  key,
			Time:    res.Measured.Mean,
			Energy:  res.Energy,
			Error:   v.Error,
			Speedup: r.Speedup,
		})
	}
	e.cache[key] = r
	e.record(key, cfg.Demoted(), r)
	e.observe(key, cfg.Demoted(), r, false)
	return r, nil
}

// canceled reports the attached context's cancellation as ErrCanceled
// (nil while the analysis may continue). The first cancellation seen is
// also surfaced to telemetry so a service can show why a search stopped.
func (e *Evaluator) canceled() error {
	if e.ctx == nil {
		return nil
	}
	if err := e.ctx.Err(); err != nil {
		return e.cancelError(err)
	}
	return nil
}

// cancelError wraps a context error into the strategy stop-error path,
// emitting one "search_canceled" event the first time.
func (e *Evaluator) cancelError(cause error) error {
	if e.tel != nil && !e.cancelSeen {
		e.cancelSeen = true
		e.tel.Counter("mixpbench_search_canceled_total", "bench", e.benchmark.Name()).Inc()
		e.tel.Emit("search_canceled", map[string]any{
			"bench":         e.benchmark.Name(),
			"evaluations":   e.evaluated,
			"spent_seconds": e.spent,
			"cause":         cause.Error(),
		})
	}
	return fmt.Errorf("search: %s: %v: %w", e.benchmark.Name(), cause, ErrCanceled)
}

// observe feeds one evaluation (paid or cache hit) into the attached
// telemetry recorder.
func (e *Evaluator) observe(key string, singles int, r Result, cacheHit bool) {
	if e.tel == nil {
		return
	}
	name := e.benchmark.Name()
	if cacheHit {
		e.tel.Counter("mixpbench_search_cache_hits_total", "bench", name).Inc()
	} else {
		e.tel.Counter("mixpbench_search_evaluations_total", "bench", name).Inc()
		if !r.Valid {
			e.tel.Counter("mixpbench_search_invalid_builds_total", "bench", name).Inc()
		} else {
			e.tel.Histogram("mixpbench_search_speedup", telemetry.SpeedupBuckets, "bench", name).Observe(r.Speedup)
		}
		e.tel.Gauge("mixpbench_search_spent_seconds", "bench", name).Set(e.spent)
		e.tel.Gauge("mixpbench_search_budget_fraction", "bench", name).Set(e.spent / e.budget)
	}
	e.tel.Emit("evaluation", map[string]any{
		"bench":          name,
		"config":         key,
		"singles":        singles,
		"cache":          cacheHit,
		"valid":          r.Valid,
		"passed":         r.Passed,
		"speedup":        r.Speedup,
		"error":          r.Verdict.Error,
		"spent_seconds":  e.spent,
		"budget_seconds": e.budget,
		"evaluations":    e.evaluated,
	})
}

// record appends a trace entry when tracing is on.
func (e *Evaluator) record(key string, singles int, r Result) {
	if !e.traceOn {
		return
	}
	e.trace = append(e.trace, TraceEntry{
		Seq:          e.evaluated,
		Config:       key,
		Singles:      singles,
		Result:       r,
		SpentSeconds: e.spent,
	})
}

// Outcome is what a strategy reports back.
type Outcome struct {
	// Algorithm is the strategy's short name (CB, CM, DD, HR, HC, GA).
	Algorithm string
	// Found reports whether any passing configuration was identified.
	Found bool
	// Best is the selection the strategy converged to (zero-value set
	// when !Found).
	Best Set
	// BestResult is Best's evaluation.
	BestResult Result
	// Evaluated is the paper's EV metric at termination.
	Evaluated int
	// TimedOut reports that the analysis budget expired before the
	// strategy terminated (the paper's empty grey cells).
	TimedOut bool
	// Canceled reports that the analysis context was canceled before the
	// strategy terminated. Like TimedOut it is an expected outcome, not a
	// failure: Best holds the best-so-far and Err stays nil.
	Canceled bool
	// Err carries the abnormal stop condition when the strategy aborted
	// on a non-budget error (ErrTransient from an injected node fault, a
	// verification failure); nil on normal termination and on timeouts
	// and cancellations, which are expected outcomes, not failures.
	Err error
}

// Algorithm is one search strategy.
type Algorithm interface {
	// Name returns the paper's abbreviation for the strategy.
	Name() string
	// Mode returns the unit granularity the strategy operates at.
	Mode() Mode
	// Search explores the evaluator's space and reports the outcome. It
	// must treat ErrBudgetExhausted as a stop signal, never as a failure.
	Search(e *Evaluator) Outcome
}

// finish assembles an Outcome, resolving the timeout and cancellation
// flags from err and surfacing any other stop condition as Outcome.Err.
func finish(name string, e *Evaluator, best Set, bestRes Result, found bool, err error) Outcome {
	out := Outcome{
		Algorithm:  name,
		Found:      found,
		Best:       best,
		BestResult: bestRes,
		Evaluated:  e.Evaluated(),
		TimedOut:   errors.Is(err, ErrBudgetExhausted),
		Canceled:   errors.Is(err, ErrCanceled),
	}
	if err != nil && !out.TimedOut && !out.Canceled {
		out.Err = err
	}
	return out
}

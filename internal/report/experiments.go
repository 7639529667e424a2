// Package report regenerates every table and figure of the paper's
// evaluation (Section IV): Table I (kernel inventory), Table II
// (Typeforge complexity), Table III (kernel study), Table IV (manual
// whole-program conversion), Table V (application study at three quality
// thresholds), and the data series behind Figures 2a, 2b, and 3.
//
// The canonical experiment parameters live here so the CLI, the Go
// benchmarks, and the tests all regenerate identical artifacts.
package report

import (
	"math"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/mp"
	"repro/internal/suite"
	"repro/internal/verify"
)

// Canonical experiment parameters.
const (
	// Seed drives every workload and the GA's randomness.
	Seed = 42
	// KernelThreshold is the kernel study's quality bound (Section
	// IV-B.1: "We set the quality threshold to be 1e-8").
	KernelThreshold = 1e-8
)

// AppThresholds are the application study's quality bounds (Section
// IV-B.2), loosest first as in Table V.
var AppThresholds = []float64{1e-3, 1e-6, 1e-8}

// KernelAlgorithms lists the strategies of Table III, in column order.
var KernelAlgorithms = []string{"CB", "CM", "DD", "HR", "HC", "GA"}

// AppAlgorithms lists the strategies of Table V: the combinational search
// is excluded because the application spaces are beyond exhaustive search.
var AppAlgorithms = []string{"CM", "DD", "HR", "HC", "GA"}

// Study holds one full regeneration of the evaluation.
type Study struct {
	// Kernel maps kernel name -> algorithm -> report (Table III).
	Kernel map[string]map[string]harness.Report
	// App maps threshold -> application name -> algorithm -> report
	// (Table V).
	App map[float64]map[string]map[string]harness.Report
	// Conversion holds the manual whole-program single-precision results
	// (Table IV), keyed by application name.
	Conversion map[string]ConversionRow
}

// ConversionRow is one row of Table IV.
type ConversionRow struct {
	App     string
	Speedup float64
	Metric  verify.Metric
	// QualityLoss is NaN when the conversion destroys the output.
	QualityLoss float64
}

// Options parameterises a regeneration.
type Options struct {
	// Workers is the scheduler pool size (simulated cluster nodes).
	Workers int
	// KernelsOnly skips the application study (Tables IV and V and the
	// figures), for quick runs.
	KernelsOnly bool
	// Progress, when non-nil, receives one line per completed stage.
	Progress func(string)
	// NoCache disables the study-wide shared run cache. The study is
	// byte-identical either way (results are pure functions of their cache
	// key and simulated time is charged on hits); this is the escape hatch
	// and the baseline for benchmarking the cache.
	NoCache bool
	// Precisions, when non-empty, runs the study over this precision
	// ladder (e.g. "f64,f32,bf16") instead of the paper's two-level
	// double/single axis. The default ladder changes nothing; deeper
	// ladders are the ladder-depth cost benchmarks' study, not the
	// paper's.
	Precisions string
}

// Run regenerates the full study.
func Run(opts Options) *Study {
	s := &Study{
		Kernel:     map[string]map[string]harness.Report{},
		App:        map[float64]map[string]map[string]harness.Report{},
		Conversion: map[string]ConversionRow{},
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(string) {}
	}
	// One cache spans the whole study: the six kernel algorithms (and the
	// five application algorithms per threshold) search the same spaces,
	// so most configurations any one job proposes have already run.
	var cache *bench.Cache
	if !opts.NoCache {
		cache = bench.NewCache(nil)
	}
	sched := harness.Scheduler{Workers: opts.Workers, Cache: cache}

	// Table III: kernels x 6 algorithms at the kernel threshold.
	var ladder mp.Ladder
	if opts.Precisions != "" {
		l, err := mp.ParseLadder(opts.Precisions)
		if err != nil {
			panic("report: precisions: " + err.Error())
		}
		if !l.IsDefault() {
			ladder = l
		}
	}
	var kernelJobs []harness.Job
	for _, k := range suite.Kernels() {
		for _, algo := range KernelAlgorithms {
			j := makeJob(k, algo, KernelThreshold)
			j.Spec.Analysis.Precisions = ladder
			kernelJobs = append(kernelJobs, j)
		}
	}
	for i, jr := range sched.Run(kernelJobs) {
		if jr.Err != nil {
			panic("report: kernel study: " + jr.Err.Error())
		}
		job := kernelJobs[i]
		name := job.Benchmark.Name()
		if s.Kernel[name] == nil {
			s.Kernel[name] = map[string]harness.Report{}
		}
		s.Kernel[name][jr.Report.Algorithm] = jr.Report
	}
	progress("kernel study complete (Table III)")
	if opts.KernelsOnly {
		return s
	}

	// Table IV: manual whole-program conversion per application. The
	// runner joins the study cache: a reference or manual-single run the
	// application study also needs executes once.
	runner := bench.NewRunner(Seed)
	runner.Cache = cache
	for _, a := range suite.Apps() {
		ref := runner.Reference(a)
		single := runner.RunManualSingle(a)
		loss, err := verify.Compute(a.Metric(), ref.Output.Values, single.Output.Values)
		if err != nil {
			panic("report: conversion study: " + err.Error())
		}
		s.Conversion[a.Name()] = ConversionRow{
			App:         a.Name(),
			Speedup:     ref.Measured.Mean / single.Measured.Mean,
			Metric:      a.Metric(),
			QualityLoss: loss,
		}
	}
	progress("manual conversion complete (Table IV)")

	// Table V: applications x 5 algorithms x 3 thresholds.
	for _, th := range AppThresholds {
		var jobs []harness.Job
		for _, a := range suite.Apps() {
			for _, algo := range AppAlgorithms {
				jobs = append(jobs, makeJob(a, algo, th))
			}
		}
		s.App[th] = map[string]map[string]harness.Report{}
		for i, jr := range sched.Run(jobs) {
			if jr.Err != nil {
				panic("report: app study: " + jr.Err.Error())
			}
			name := jobs[i].Benchmark.Name()
			if s.App[th][name] == nil {
				s.App[th][name] = map[string]harness.Report{}
			}
			s.App[th][name][jr.Report.Algorithm] = jr.Report
		}
		progress("application study complete at threshold " + formatThreshold(th) + " (Table V)")
	}
	return s
}

// makeJob builds the harness job for one (benchmark, algorithm,
// threshold) cell with the canonical spec fields.
func makeJob(b bench.Benchmark, algo string, threshold float64) harness.Job {
	return harness.Job{
		Spec: harness.Spec{
			Name:     b.Name(),
			BuildDir: b.Name(),
			Build:    []string{"make"},
			Clean:    []string{"make clean"},
			Bin:      b.Name(),
			Metric:   b.Metric(),
			Analysis: harness.AnalysisSpec{
				ID:        "floatsmith",
				Name:      "floatSmith",
				Algorithm: algo,
				Threshold: threshold,
			},
		},
		Benchmark: b,
		Seed:      Seed,
	}
}

// CellFilled reports whether a Table V cell has content. The paper leaves
// a cell empty when the algorithm "did not produce any results in 24
// hours"; an analysis that exhausted its budget is rendered empty here
// even when it had found passing configurations along the way, matching
// that convention.
func CellFilled(r harness.Report) bool {
	return !r.TimedOut && !math.IsNaN(r.Speedup)
}

// Command mixpbench is the suite's harness entry point, the counterpart of
// the paper's Python harness: it reads a YAML configuration file
// describing benchmarks and the analyses to apply (Listing 4 of the
// paper), deploys each analysis on the worker pool, and prints one report
// per entry.
//
// Usage:
//
//	mixpbench -config path/to/config.yaml [-workers N] [-seed S]
//	mixpbench -list
//	mixpbench -tune bench -algorithm DD [-threshold 1e-8]
//
// Telemetry: -metrics PATH writes a Prometheus-style snapshot of the
// run's metrics on exit, and -events PATH streams structured JSONL events
// while it executes ("-" selects stdout for either). Snapshots are
// deterministic: the same seed produces byte-identical metrics for any
// -workers value.
//
// Tracing (with -config): -trace PATH exports the campaign's span tree
// as Chrome trace_event JSON (open it in Perfetto or chrome://tracing)
// and -profile PATH exports the per-phase / critical-path profile.
// Both run on the simulated analysis clock, so the files are
// byte-identical for any -workers value and with the run cache on or
// off. Parent directories are created as needed; the two flags must
// name distinct files. (The per-configuration evaluation log formerly
// printed by "-trace" with -tune is now -evallog.)
//
// Fault tolerance (with -config): -faults injects deterministic failures
// ("transient=0.2,crash=0.05,straggler=0.1,seed=7"), -retries caps the
// attempts per job, -checkpoint PATH journals each completed job, and
// -resume PATH restarts an interrupted campaign from such a journal,
// skipping completed jobs. A job's telemetry is journalled only when the
// run records it (-metrics or -events), so resuming a run made without
// -metrics with -metrics snapshots only the jobs the resume re-runs. A
// campaign whose jobs failed exits with code 3 after printing every
// report, so one bad entry cannot hide the rest.
//
// Durability (with -config): -store DIR persists every benchmark
// execution to an append-only, checksummed result store in DIR/results
// (the same layout mixpd -store uses, so the CLI and the service can
// share one directory). A later campaign - same process or not - serves
// matching executions from disk instead of re-running them, with
// byte-identical reports; -store-stats PATH writes the store's traffic
// counters and hit rate as JSON on exit ("-" = stdout). The store
// survives crashes: a torn final record is truncated away at the next
// open and corrupt segments are quarantined, never trusted.
//
// Deadlines: -timeout S bounds the whole run by S wall-clock seconds.
// On expiry in-flight analyses stop at their next evaluation boundary
// and report best-so-far, unstarted jobs are skipped, and the process
// exits with code 4 after printing every report - so a checkpoint
// journal written under -timeout resumes exactly like an interrupted
// campaign.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	mixpbench "repro"
	"repro/internal/interchange"
)

func main() {
	var (
		configPath  = flag.String("config", "", "YAML harness configuration file")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 0, "workload seed (0 = canonical study seed)")
		list        = flag.Bool("list", false, "list the suite's benchmarks and exit")
		tune        = flag.String("tune", "", "tune one benchmark by name (bypasses the config file)")
		algorithm   = flag.String("algorithm", "DD", "search algorithm for -tune (CB, CM, DD, HR, HC, GA, GP)")
		threshold   = flag.Float64("threshold", 0, "quality threshold for -tune (0 = 1e-8)")
		exportSpace = flag.String("export-space", "", "write a benchmark's search space as interchange JSON and exit")
		jsonOut     = flag.Bool("json", false, "emit harness reports as interchange JSON instead of text")
		evallog     = flag.Bool("evallog", false, "with -tune: print the per-configuration evaluation log")
		traceOut    = flag.String("trace", "", "with -config: write the campaign's Chrome trace_event JSON to this file")
		profileOut  = flag.String("profile", "", "with -config: write the campaign's per-phase profile JSON to this file")
		metricsOut  = flag.String("metrics", "", `write a Prometheus-style metrics snapshot on exit ("-" = stdout)`)
		eventsOut   = flag.String("events", "", `stream telemetry events as JSONL ("-" = stdout)`)
		faultSpec   = flag.String("faults", "", `with -config: inject deterministic faults, e.g. "transient=0.2,crash=0.05,seed=7"`)
		retries     = flag.Int("retries", 0, "with -config: max attempts per job on transient faults (0 = default 3)")
		checkpoint  = flag.String("checkpoint", "", "with -config: journal completed jobs to this file")
		resume      = flag.String("resume", "", "with -config: resume from a checkpoint journal, skipping completed jobs")
		storeDir    = flag.String("store", "", "with -config: durable result store directory; executions persist in DIR/results and later campaigns reuse them")
		storeStats  = flag.String("store-stats", "", `with -config and -store: write the store's stats as JSON on exit ("-" = stdout)`)
		timeout     = flag.Float64("timeout", 0, "wall-clock deadline in seconds for -config or -tune (0 = none); expiry exits with code 4")
		precisions  = flag.String("precisions", "", `precision ladder to search, e.g. "f64,f32,bf16" (default: the two-level double/single study)`)
		objective   = flag.String("objective", "", `analysis objective: "threshold" (default) or "pareto" (records the time/energy/error Pareto front)`)
	)
	flag.Parse()

	cf := campaignFlags{
		workers:     *workers,
		seed:        *seed,
		precisions:  *precisions,
		objective:   *objective,
		timeout:     *timeout,
		jsonOut:     *jsonOut,
		faultSpec:   *faultSpec,
		retries:     *retries,
		checkpoint:  *checkpoint,
		resume:      *resume,
		storeDir:    *storeDir,
		storeStats:  *storeStats,
		tracePath:   *traceOut,
		profilePath: *profileOut,
		// Validation must see the flags the user actually set: an
		// explicit -trace "" is an error, not an absent flag.
		outputs: visitedOutputs(),
	}
	if err := validateFlags(*configPath, *threshold, *tune, *algorithm, cf); err != nil {
		fatal(err)
	}
	ctx, cancel := deadlineContext(*timeout)
	defer cancel()

	switch {
	case *list:
		listBenchmarks(os.Stdout)
	case *exportSpace != "":
		if err := exportSpaceJSON(os.Stdout, *exportSpace); err != nil {
			fatal(err)
		}
	case *tune != "":
		tel, closeTel, err := openTelemetry(*metricsOut, *eventsOut)
		if err != nil {
			fatal(err)
		}
		// A fresh run cache, as a -config campaign gets by default: proposals
		// the read-set index can answer are not executed again. Its
		// counters go to no recorder, so the -metrics snapshot is unchanged.
		cache := mixpbench.NewRunCache(nil)
		canceled, err := tuneOne(ctx, os.Stdout, *tune, *algorithm, *threshold, *seed, *evallog, *precisions, *objective, tel, cache)
		if err != nil {
			fatal(err)
		}
		if err := closeTel(); err != nil {
			fatal(err)
		}
		if canceled {
			fmt.Fprintf(os.Stderr, "mixpbench: deadline of %gs expired\n", *timeout)
			os.Exit(exitTimeout)
		}
	case *configPath != "":
		tel, closeTel, err := openTelemetry(*metricsOut, *eventsOut)
		if err != nil {
			fatal(err)
		}
		failed, err := runConfig(ctx, os.Stdout, *configPath, cf, tel)
		if err != nil {
			fatal(err)
		}
		if err := closeTel(); err != nil {
			fatal(err)
		}
		if ctx.Err() != nil {
			// The deadline outranks per-entry failures: canceled and
			// skipped entries land in failed too, and exiting 3 for them
			// would misreport an expiry as bad configuration entries.
			fmt.Fprintf(os.Stderr, "mixpbench: deadline of %gs expired with %d entries unfinished\n",
				*timeout, len(failed))
			os.Exit(exitTimeout)
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "mixpbench: %d entries failed: %s\n",
				len(failed), strings.Join(failed, ", "))
			os.Exit(exitJobErrors)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// exitJobErrors is the exit code for a campaign that completed but had
// failing jobs - distinct from 1 (the campaign itself could not run) so
// scripts can tell "some entries failed" from "nothing ran".
const exitJobErrors = 3

// exitTimeout is the exit code for a run cut short by -timeout: the
// reports printed are genuine but incomplete (best-so-far analyses,
// skipped entries), which is a different condition from exitJobErrors.
const exitTimeout = 4

// deadlineContext builds the run's context from -timeout (0 = no
// deadline).
func deadlineContext(seconds float64) (context.Context, context.CancelFunc) {
	if seconds <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second)))
}

// campaignFlags bundles the -config mode's flags.
type campaignFlags struct {
	workers     int
	seed        int64
	precisions  string
	objective   string
	timeout     float64
	jsonOut     bool
	faultSpec   string
	retries     int
	checkpoint  string
	resume      string
	storeDir    string
	storeStats  string
	tracePath   string
	profilePath string
	// outputs holds the export flags the user explicitly set (flag name
	// with its dash → path), so validation can reject an explicit empty
	// or duplicate path that the plain string fields cannot distinguish
	// from an absent flag.
	outputs map[string]string
}

// visitedOutputs collects the explicitly-set output path flags: every
// flag naming a destination the run writes goes through the shared
// output-path validation (non-empty, pairwise distinct), so -store
// can never silently clobber a -checkpoint journal or vice versa.
// -resume stays out: it is an input, and the resume idiom points it
// at the same file as -checkpoint.
func visitedOutputs() map[string]string {
	out := map[string]string{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trace", "profile", "checkpoint", "store", "store-stats":
			out["-"+f.Name] = f.Value.String()
		}
	})
	return out
}

// validateFlags rejects nonsense flag values with a clear error before
// any work starts.
func validateFlags(configPath string, threshold float64, tune, algorithm string, cf campaignFlags) error {
	if cf.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", cf.workers)
	}
	if !(threshold >= 0) || math.IsInf(threshold, 1) {
		return fmt.Errorf("-threshold must be a finite number >= 0, got %g", threshold)
	}
	if cf.retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", cf.retries)
	}
	// A NaN fails both comparisons; an infinite or too-large value would
	// overflow the time.Duration deadlineContext converts it to.
	if !(cf.timeout >= 0 && cf.timeout*float64(time.Second) < float64(math.MaxInt64)) {
		return fmt.Errorf("-timeout must be >= 0 and below %.4g seconds (the largest time.Duration), got %g",
			time.Duration(math.MaxInt64).Seconds(), cf.timeout)
	}
	if tune != "" {
		if _, err := mixpbench.CanonicalAlgorithm(algorithm); err != nil {
			return fmt.Errorf("-algorithm: %w", err)
		}
	}
	if cf.storeStats != "" && cf.storeDir == "" {
		return fmt.Errorf("-store-stats requires -store")
	}
	if configPath == "" {
		for flagName, set := range map[string]bool{
			"-faults":      cf.faultSpec != "",
			"-retries":     cf.retries != 0,
			"-checkpoint":  cf.checkpoint != "",
			"-resume":      cf.resume != "",
			"-store":       cf.storeDir != "",
			"-store-stats": cf.storeStats != "",
		} {
			if set {
				return fmt.Errorf("%s requires -config", flagName)
			}
		}
		if len(cf.outputs) > 0 {
			names := make([]string, 0, len(cf.outputs))
			for name := range cf.outputs {
				names = append(names, name)
			}
			sort.Strings(names)
			return fmt.Errorf("%s requires -config", names[0])
		}
	}
	if err := mixpbench.ValidateTraceOutputs(cf.outputs); err != nil {
		return err
	}
	if cf.faultSpec != "" {
		if _, err := mixpbench.ParseFaultSpec(cf.faultSpec); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if cf.precisions != "" {
		if _, err := mixpbench.ParsePrecisions(cf.precisions); err != nil {
			return fmt.Errorf("-precisions: %w", err)
		}
	}
	if cf.objective != "" {
		if _, err := mixpbench.ParseObjective(cf.objective); err != nil {
			return fmt.Errorf("-objective: %w", err)
		}
	}
	return nil
}

// openTelemetry builds the recorder behind -metrics/-events. The returned
// close function writes the metrics snapshot and reports any event-stream
// write error; it must run after the instrumented work completes. Both
// paths accept "-" for stdout; empty flags yield a nil recorder.
func openTelemetry(metricsPath, eventsPath string) (*mixpbench.Telemetry, func() error, error) {
	if metricsPath == "" && eventsPath == "" {
		return nil, func() error { return nil }, nil
	}
	var sink *mixpbench.JSONLEventSink
	var eventsFile *os.File
	if eventsPath != "" {
		w := io.Writer(os.Stdout)
		if eventsPath != "-" {
			f, err := os.Create(eventsPath)
			if err != nil {
				return nil, nil, err
			}
			eventsFile = f
			w = f
		}
		sink = mixpbench.NewJSONLSink(w)
	}
	var tel *mixpbench.Telemetry
	if sink != nil {
		tel = mixpbench.NewTelemetry(sink)
	} else {
		tel = mixpbench.NewTelemetry(nil)
	}
	closeFn := func() error {
		var firstErr error
		// Surface event-stream write failures in the metrics snapshot:
		// the instrumented work is done by now, so the count is final.
		if sink != nil {
			if n := sink.WriteErrors(); n > 0 {
				tel.Counter("mixpbench_telemetry_write_errors_total").Add(float64(n))
			}
		}
		if metricsPath != "" {
			w := io.Writer(os.Stdout)
			var f *os.File
			if metricsPath != "-" {
				var err error
				if f, err = os.Create(metricsPath); err != nil {
					return err
				}
				w = f
			}
			firstErr = tel.WriteMetrics(w)
			if f != nil {
				if err := f.Close(); firstErr == nil {
					firstErr = err
				}
			}
		}
		if sink != nil {
			if err := sink.Close(); firstErr == nil {
				firstErr = err
			}
		}
		if eventsFile != nil {
			if err := eventsFile.Close(); firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return tel, closeFn, nil
}

// exportSpaceJSON writes the named benchmark's variable inventory and
// type-change sets in the FloatSmith interchange format.
func exportSpaceJSON(w io.Writer, name string) error {
	b, err := mixpbench.Benchmark(name)
	if err != nil {
		return err
	}
	return interchange.WriteSpace(w, b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixpbench:", err)
	os.Exit(1)
}

// profileTopJobs caps the critical-path job table in -profile exports.
const profileTopJobs = 10

// exportTrace writes the -trace and -profile artifacts of a finished
// campaign. The campaign name in the exports is the configuration
// file's base name (without extension), so the bytes depend only on the
// configuration and seed, never on where the file happens to live.
func exportTrace(configPath string, cf campaignFlags, specs []mixpbench.HarnessSpec, results []mixpbench.HarnessJobResult) error {
	if cf.tracePath == "" && cf.profilePath == "" {
		return nil
	}
	base := filepath.Base(configPath)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	tr := mixpbench.BuildCampaignTrace(name, specs, results)
	if cf.tracePath != "" {
		err := writeExport(cf.tracePath, func(w io.Writer) error {
			return mixpbench.WriteChromeTrace(w, tr)
		})
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if cf.profilePath != "" {
		p := mixpbench.BuildTraceProfile(tr, profileTopJobs)
		err := writeExport(cf.profilePath, func(w io.Writer) error {
			return mixpbench.WriteTraceProfile(w, p)
		})
		if err != nil {
			return fmt.Errorf("-profile: %w", err)
		}
	}
	return nil
}

// writeStoreStats renders the store's counters as indented JSON with a
// derived store_hit_rate (hits over lookups; 1.0 means the campaign
// ran entirely from disk), the number the store-smoke gate asserts on.
func writeStoreStats(path string, s mixpbench.ResultStoreStats) error {
	rate := 0.0
	if s.Gets > 0 {
		rate = float64(s.GetHits) / float64(s.Gets)
	}
	body := struct {
		mixpbench.ResultStoreStats
		HitRate float64 `json:"store_hit_rate"`
	}{s, rate}
	b, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	f, err := mixpbench.CreateTraceOutput(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeExport creates path (making parent directories) and fills it
// with one export.
func writeExport(path string, write func(io.Writer) error) error {
	f, err := mixpbench.CreateTraceOutput(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func listBenchmarks(w io.Writer) {
	fmt.Fprintln(w, "Kernels:")
	for _, b := range mixpbench.Kernels() {
		g := b.Graph()
		fmt.Fprintf(w, "  %-16s TV=%-3d TC=%-3d %s\n", b.Name(), g.NumVars(), g.NumClusters(), b.Description())
	}
	fmt.Fprintln(w, "Applications:")
	for _, b := range mixpbench.Apps() {
		g := b.Graph()
		fmt.Fprintf(w, "  %-16s TV=%-3d TC=%-3d %s\n", b.Name(), g.NumVars(), g.NumClusters(), b.Description())
	}
}

// tuneOne runs one -tune search on cache and prints its result. The
// cache memoises the search's executions; the output is the same as
// without one.
func tuneOne(ctx context.Context, w io.Writer, name, algorithm string, threshold float64, seed int64, evallog bool, precisions, objective string, tel *mixpbench.Telemetry, cache *mixpbench.RunCache) (canceled bool, err error) {
	b, err := mixpbench.Benchmark(name)
	if err != nil {
		return false, err
	}
	res, err := mixpbench.TuneContext(ctx, b, mixpbench.TuneOptions{
		Algorithm:  algorithm,
		Threshold:  threshold,
		Seed:       seed,
		Trace:      evallog,
		Telemetry:  tel,
		Cache:      cache,
		Precisions: precisions,
		Objective:  objective,
	})
	if err != nil {
		return false, err
	}
	if evallog {
		fmt.Fprintln(w, "evaluation log:")
		for _, e := range res.Trace {
			status := "fail"
			switch {
			case !e.Result.Valid:
				status = "no-compile"
			case e.Result.Passed:
				status = "pass"
			}
			fmt.Fprintf(w, "  #%-4d singles=%-4d %-10s speedup=%.3f err=%.3g spent=%.0fs\n",
				e.Seq, e.Singles, status, e.Result.Speedup, e.Result.Verdict.Error, e.SpentSeconds)
		}
	}
	fmt.Fprintf(w, "benchmark : %s\n", b.Name())
	fmt.Fprintf(w, "algorithm : %s\n", algorithm)
	fmt.Fprintf(w, "evaluated : %d configurations\n", res.Evaluated)
	if res.TimedOut {
		fmt.Fprintln(w, "status    : analysis budget exhausted")
	}
	if res.Canceled {
		fmt.Fprintln(w, "status    : deadline expired, best-so-far result")
	}
	if !res.Found {
		fmt.Fprintln(w, "result    : no passing configuration found")
		return res.Canceled, nil
	}
	fmt.Fprintf(w, "speedup   : %.3fx\n", res.Speedup)
	fmt.Fprintf(w, "error     : %.3g (%s)\n", res.Error, b.Metric())
	if precisions == "" {
		fmt.Fprintf(w, "demoted   : %d of %d variables to single precision\n",
			res.Config.Singles(), b.Graph().NumVars())
	} else {
		fmt.Fprintf(w, "demoted   : %d of %d variables below working precision (ladder %s)\n",
			res.Config.Demoted(), b.Graph().NumVars(), precisions)
	}
	if res.Energy > 0 && objective != "" {
		fmt.Fprintf(w, "energy    : %.4g J per run\n", res.Energy)
	}
	if len(res.Front) > 0 {
		fmt.Fprintf(w, "pareto    : %d non-dominated points (time, energy, error)\n", len(res.Front))
		for _, p := range res.Front {
			fmt.Fprintf(w, "  %-24s time=%.4gs energy=%.4gJ err=%.3g speedup=%.3fx\n",
				p.Config, p.Time, p.Energy, p.Error, p.Speedup)
		}
	}
	return res.Canceled, nil
}

// runConfig executes a campaign from a configuration file and prints one
// line per entry. It returns the names of entries whose jobs failed
// (degraded, errored, canceled, or skipped when ctx died); campaign-level
// problems come back as err.
func runConfig(ctx context.Context, w io.Writer, path string, cf campaignFlags, tel *mixpbench.Telemetry) (failed []string, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	camp, err := mixpbench.ParseHarnessCampaign(string(raw))
	if err != nil {
		return nil, err
	}
	plan := camp.Faults
	if cf.faultSpec != "" {
		// The CLI spec replaces the config file's clause wholesale; mixing
		// the two would make the effective plan hard to reason about.
		if plan, err = mixpbench.ParseFaultSpec(cf.faultSpec); err != nil {
			return nil, err
		}
	}
	retry := camp.Retry
	if cf.retries > 0 {
		retry.MaxAttempts = cf.retries
	}
	opts := mixpbench.CampaignOptions{
		Workers:        cf.workers,
		Seed:           cf.seed,
		Telemetry:      tel,
		Faults:         plan,
		Retry:          retry,
		CheckpointPath: cf.checkpoint,
		ResumePath:     cf.resume,
		Precisions:     cf.precisions,
		Objective:      cf.objective,
	}
	var st *mixpbench.ResultStore
	if cf.storeDir != "" {
		// Mirror mixpd's layout (results under DIR/results) so the CLI
		// and the service can share one durable directory.
		st, err = mixpbench.OpenResultStore(filepath.Join(cf.storeDir, "results"))
		if err != nil {
			return nil, fmt.Errorf("-store: %w", err)
		}
		defer st.Close()
		opts.Cache = mixpbench.NewStoredRunCache(nil, st)
	}
	results, err := mixpbench.RunCampaignContext(ctx, camp.Specs, opts)
	if err != nil {
		return nil, err
	}
	if st != nil {
		// Flush write-behind puts before reporting: once the process
		// prints its reports the store must already hold them.
		if err := st.Sync(); err != nil {
			return nil, fmt.Errorf("-store: %w", err)
		}
		if cf.storeStats != "" {
			if err := writeStoreStats(cf.storeStats, st.Stats()); err != nil {
				return nil, fmt.Errorf("-store-stats: %w", err)
			}
		}
	}
	for i, res := range results {
		if res.Err != nil {
			failed = append(failed, camp.Specs[i].Name)
		}
	}
	if err := exportTrace(path, cf, camp.Specs, results); err != nil {
		return nil, err
	}
	if cf.jsonOut {
		reports := make([]mixpbench.HarnessReport, len(results))
		for i, res := range results {
			reports[i] = res.Report
		}
		return failed, interchange.WriteReports(w, reports)
	}
	for i, res := range results {
		r := res.Report
		spec := camp.Specs[i]
		fmt.Fprintf(w, "%s [%s @ %.0e]: ", spec.Name, spec.Analysis.Algorithm, spec.Analysis.Threshold)
		switch {
		case res.Skipped:
			fmt.Fprintln(w, "SKIPPED: deadline expired before the job started")
		case r.Canceled:
			fmt.Fprintf(w, "CANCELED after %d configs evaluated (deadline expired)\n", r.Evaluated)
		case res.Degraded:
			fmt.Fprintf(w, "DEGRADED after %d attempts: %v\n", len(res.Attempts), res.Err)
		case res.Err != nil:
			fmt.Fprintf(w, "FAILED: %v\n", res.Err)
		case r.TimedOut && !r.Found:
			fmt.Fprintln(w, "no result within the analysis budget")
		case !r.Found:
			fmt.Fprintln(w, "no passing configuration")
		default:
			quality := fmt.Sprintf("%.3g", r.Quality)
			if math.IsNaN(r.Quality) {
				quality = "NaN"
			}
			demoted := "single"
			if r.Precisions != "" {
				demoted = "demoted [" + r.Precisions + "]"
			}
			fmt.Fprintf(w, "speedup %.3fx, quality %s, %d/%d vars %s, %d configs evaluated",
				r.Speedup, quality, r.Demoted, r.Variables, demoted, r.Evaluated)
			if n := len(res.Attempts); n > 1 {
				fmt.Fprintf(w, " (%d attempts)", n)
			}
			if len(r.Front) > 0 {
				fmt.Fprintf(w, ", pareto front %d points", len(r.Front))
			}
			fmt.Fprintln(w)
		}
	}
	return failed, nil
}

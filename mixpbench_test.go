package mixpbench_test

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	mixpbench "repro"
)

func TestBenchmarkLookup(t *testing.T) {
	b, err := mixpbench.Benchmark("hydro-1d")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "hydro-1d" {
		t.Errorf("Name = %q", b.Name())
	}
	if _, err := mixpbench.Benchmark("nope"); err == nil {
		t.Error("expected lookup error")
	}
}

func TestSuiteAccessors(t *testing.T) {
	if len(mixpbench.Benchmarks()) != 17 {
		t.Errorf("Benchmarks() = %d", len(mixpbench.Benchmarks()))
	}
	if len(mixpbench.Kernels()) != 10 || len(mixpbench.Apps()) != 7 {
		t.Error("kernel/app split wrong")
	}
	algos := mixpbench.Algorithms()
	if len(algos) != 6 || algos[0] != "CB" || algos[5] != "GA" {
		t.Errorf("Algorithms() = %v", algos)
	}
}

func TestTuneDefaultsAndResult(t *testing.T) {
	b, err := mixpbench.Benchmark("iccg")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mixpbench.Tune(b, mixpbench.TuneOptions{Algorithm: "ddebug"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("iccg should tune at the default threshold")
	}
	if res.Speedup < 1.5 {
		t.Errorf("speedup = %.2f, want the calibrated ~1.9", res.Speedup)
	}
	if res.Config.Singles() != b.Graph().NumVars() {
		t.Errorf("demoted %d vars, want all %d", res.Config.Singles(), b.Graph().NumVars())
	}
	if res.Error <= 0 || res.Error > 1e-8 {
		t.Errorf("error = %g, want within threshold", res.Error)
	}
}

func TestTuneValidation(t *testing.T) {
	b, _ := mixpbench.Benchmark("eos")
	if _, err := mixpbench.Tune(b, mixpbench.TuneOptions{}); err == nil {
		t.Error("missing algorithm should error")
	}
	if _, err := mixpbench.Tune(b, mixpbench.TuneOptions{Algorithm: "annealing"}); err == nil {
		t.Error("unknown algorithm should error")
	}
	for _, th := range []float64{-1e-8, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := mixpbench.Tune(b, mixpbench.TuneOptions{Algorithm: "DD", Threshold: th}); err == nil {
			t.Errorf("threshold %g should error", th)
		}
	}
}

// TestRunCampaignContextExpiredDeadline checks that a campaign under an
// already-expired deadline skips every job with the context's own
// cause, and that an empty spec list is refused.
func TestRunCampaignContextExpiredDeadline(t *testing.T) {
	specs, err := mixpbench.ParseHarnessConfig(`
hydro-dd:
  build_dir: 'hydro'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'DD'
  metric: 'MAE'
  bin: 'hydro-1d'
  copy: ['hydro']
  args: ''
eos-hr:
  build_dir: 'eos'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'HR'
  metric: 'MAE'
  bin: 'eos'
  copy: ['eos']
  args: ''
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	results, err := mixpbench.RunCampaignContext(ctx, specs, mixpbench.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d entries", len(results), len(specs))
	}
	for i, r := range results {
		if !r.Skipped || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("entry %d: skipped=%v err=%v, want skipped wrapping %v", i, r.Skipped, r.Err, context.DeadlineExceeded)
		}
	}
	if _, err := mixpbench.RunCampaignContext(context.Background(), nil, mixpbench.CampaignOptions{}); err == nil {
		t.Error("empty spec list accepted")
	}
}

func TestTuneBudget(t *testing.T) {
	b, _ := mixpbench.Benchmark("eos")
	res, err := mixpbench.Tune(b, mixpbench.TuneOptions{Algorithm: "GA", BudgetSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("1-second budget should time out")
	}
}

func TestMetricHelpers(t *testing.T) {
	v, err := mixpbench.ComputeMetric(mixpbench.MAE, []float64{1, 2}, []float64{1, 3})
	if err != nil || v != 0.5 {
		t.Errorf("ComputeMetric = %g, %v", v, err)
	}
	verdict, err := mixpbench.CheckMetric(mixpbench.MAE, []float64{1}, []float64{math.NaN()}, 1)
	if err != nil || verdict.Passed {
		t.Errorf("CheckMetric NaN = %+v, %v", verdict, err)
	}
}

func TestRunnerRoundTrip(t *testing.T) {
	b, _ := mixpbench.Benchmark("innerprod")
	r := mixpbench.NewRunner(5)
	ref := r.Reference(b)
	if len(ref.Output.Values) == 0 || ref.ModelTime <= 0 {
		t.Error("reference run empty")
	}
	cfg := mixpbench.Config{mixpbench.F32, mixpbench.F32, mixpbench.F64}
	res := r.Run(b, cfg)
	e, err := mixpbench.ComputeMetric(b.Metric(), ref.Output.Values, res.Output.Values)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("operand demotion error = %g, want 0 (exact inputs)", e)
	}
}

func TestHarnessRoundTrip(t *testing.T) {
	specs, err := mixpbench.ParseHarnessConfig(`
srad:
  build_dir: 'srad'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'hierarchical'
        threshold: 1e-3
  metric: 'MAE'
  bin: 'srad'
  copy: ['srad']
  args: '100 0.5 502 458'
`)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := mixpbench.RunHarness(specs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("%d reports", len(reports))
	}
	r := reports[0]
	if r.Benchmark != "SRAD" || r.Algorithm != "HR" {
		t.Errorf("report = %+v", r)
	}
	// SRAD is effectively untunable: whatever HR accepts must carry zero
	// error and ~1.0 speedup.
	if r.Found && (r.Quality != 0 || r.Speedup > 1.1) {
		t.Errorf("SRAD tuned unexpectedly: %+v", r)
	}
}

func TestRegisterMetricThroughFacade(t *testing.T) {
	id := mixpbench.RegisterMetric("MEDAE-test", func(ref, got []float64) float64 {
		// Median absolute error, crudely: good enough for the wiring test.
		worst, second := 0.0, 0.0
		for i := range ref {
			d := math.Abs(ref[i] - got[i])
			if d > worst {
				worst, second = d, worst
			} else if d > second {
				second = d
			}
		}
		return second
	})
	v, err := mixpbench.ComputeMetric(id, []float64{0, 0, 0}, []float64{3, 2, 1})
	if err != nil || v != 2 {
		t.Errorf("custom metric = %g, %v", v, err)
	}
	// The harness metric clause resolves it too.
	specs, err := mixpbench.ParseHarnessConfig(`
x:
  build_dir: 'x'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'DD'
  metric: 'MEDAE-test'
  bin: 'hydro-1d'
  copy: ['x']
  args: ''
`)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Metric != id {
		t.Errorf("harness parsed metric %v, want %v", specs[0].Metric, id)
	}
}

// TestShippedConfigsParse locks the configuration files the repository
// ships: they must parse and resolve against the suite.
func TestShippedConfigsParse(t *testing.T) {
	for _, path := range []string{"configs/kmeans.yaml", "configs/appstudy.yaml"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs, err := mixpbench.ParseHarnessConfig(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(specs) == 0 {
			t.Fatalf("%s: no entries", path)
		}
		for _, s := range specs {
			if _, err := s.Resolve(); err != nil {
				t.Errorf("%s: entry %s: %v", path, s.Name, err)
			}
		}
	}
}

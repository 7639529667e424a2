// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section. Each target regenerates its artifact and
// reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. The application campaign (Table V and
// the figures) is the expensive part - it is the equivalent of the paper's
// multi-day cluster run - so those targets share one cached campaign: the
// first benchmark to need it pays for it.
package mixpbench_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	mixpbench "repro"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/suite"
	"repro/internal/verify"
)

// fullStudy caches the complete campaign across benchmark targets.
var (
	fullStudyOnce sync.Once
	fullStudyVal  *report.Study
)

func fullStudy(b *testing.B) *report.Study {
	b.Helper()
	fullStudyOnce.Do(func() {
		fullStudyVal = report.Run(report.Options{Workers: 2, Progress: func(m string) { b.Log(m) }})
	})
	return fullStudyVal
}

// BenchmarkTableI regenerates the kernel inventory.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := report.TableI()
		if !strings.Contains(out, "tridiag") {
			b.Fatal("table I incomplete")
		}
	}
}

// BenchmarkTableII regenerates the Typeforge complexity inventory and
// reports the suite-wide totals.
func BenchmarkTableII(b *testing.B) {
	tv, tc := 0, 0
	for i := 0; i < b.N; i++ {
		out := report.TableII()
		if !strings.Contains(out, "195") {
			b.Fatal("table II incomplete")
		}
		tv, tc = 0, 0
		for _, bm := range suite.All() {
			tv += bm.Graph().NumVars()
			tc += bm.Graph().NumClusters()
		}
	}
	b.ReportMetric(float64(tv), "total-vars")
	b.ReportMetric(float64(tc), "total-clusters")
}

// BenchmarkTableIII regenerates the kernel study (10 kernels x 6
// algorithms at threshold 1e-8) with the study-wide run cache, so the 60
// jobs execute each distinct (kernel, configuration) once between them.
// It reports the banded-lin-eq speedup - the paper's strongest kernel
// result - and hydro-1d's DD speedup, the headline the campaign
// benchmarks share. Compare against BenchmarkCampaignColdCache for the
// cache's wall-clock effect; both produce byte-identical reports (locked
// by harness.TestSchedulerCacheDeterministic). It is also the two-rung
// side of the ladder-depth pair; see BenchmarkCampaignLadder3.
func BenchmarkTableIII(b *testing.B) {
	var study *report.Study
	for i := 0; i < b.N; i++ {
		study = report.Run(report.Options{Workers: 2, KernelsOnly: true})
	}
	b.ReportMetric(study.Kernel["banded-lin-eq"]["DD"].Speedup, "banded-DD-speedup")
	b.ReportMetric(study.Kernel["iccg"]["CB"].Speedup, "iccg-CB-speedup")
	b.ReportMetric(study.Kernel["hydro-1d"]["DD"].Speedup, "hydro-DD-speedup")
}

// kernelCampaign runs Table III's campaign entries through the library's
// campaign path with the given options, on two workers at the study seed,
// and returns hydro-1d's DD speedup.
func kernelCampaign(b *testing.B, opts harness.CampaignOptions) float64 {
	b.Helper()
	opts.Workers, opts.Seed = 2, report.Seed
	results, err := harness.RunCampaign(report.KernelSpecs(), opts)
	if err != nil {
		b.Fatal(err)
	}
	speedup := math.NaN()
	for _, jr := range results {
		if jr.Err != nil {
			b.Fatal(jr.Err)
		}
		if jr.Report.Benchmark == "hydro-1d" && jr.Report.Algorithm == "DD" {
			speedup = jr.Report.Speedup
		}
	}
	return speedup
}

// BenchmarkCampaignColdCache measures the same kernel campaign with
// caching disabled: every job re-executes every configuration it
// proposes, as the pre-cache harness did, so every proposal runs on the
// compiler's pooled tapes. This is the campaign number EXPERIMENTS.md
// tracks for the evaluation path.
func BenchmarkCampaignColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kernelCampaign(b, harness.CampaignOptions{NoCache: true})
	}
}

// BenchmarkCampaignLadder3 is the three-rung side of the ladder-depth
// pair: the same kernel campaign (60 jobs, shared run cache) as
// BenchmarkTableIII, its two-rung side, over the f64,f32,bf16 ladder
// instead of the paper's double/single axis. The ratio of their ns/op is
// the campaign-level price of one extra rung - every strategy re-runs
// its deepening stage per rung, so the search space grows from 2^loc to
// 3^loc while memoisation keeps the paid evaluations far below that. Pin
// -benchtime (e.g. -benchtime=5x) so both sides measure the same amount
// of work.
func BenchmarkCampaignLadder3(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = kernelCampaign(b, harness.CampaignOptions{Precisions: "f64,f32,bf16"})
	}
	b.ReportMetric(speedup, "hydro-DD-speedup")
}

// BenchmarkTableIV regenerates the manual whole-program conversion study
// and reports the two extreme applications the paper highlights.
func BenchmarkTableIV(b *testing.B) {
	runner := bench.NewRunner(report.Seed)
	var lavamd, kmeans float64
	for i := 0; i < b.N; i++ {
		for _, a := range suite.Apps() {
			ref := runner.Reference(a)
			single := runner.RunManualSingle(a)
			su := ref.Measured.Mean / single.Measured.Mean
			switch a.Name() {
			case "LavaMD":
				lavamd = su
			case "K-means":
				kmeans = su
			}
		}
	}
	b.ReportMetric(lavamd, "lavamd-speedup")
	b.ReportMetric(kmeans, "kmeans-speedup")
}

// BenchmarkTableV regenerates the application study (7 applications x 5
// algorithms x 3 thresholds under the simulated 24-hour budget). The
// campaign is cached across targets; the first iteration pays for it.
func BenchmarkTableV(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = fullStudy(b).TableV()
	}
	if !strings.Contains(out, "LavaMD") {
		b.Fatal("table V incomplete")
	}
	s := fullStudy(b)
	b.ReportMetric(s.App[1e-3]["LavaMD"]["DD"].Speedup, "lavamd-1e-3-DD-speedup")
	timeouts := 0
	for _, th := range report.AppThresholds {
		for _, rows := range s.App[th] {
			for _, r := range rows {
				if !report.CellFilled(r) {
					timeouts++
				}
			}
		}
	}
	b.ReportMetric(float64(timeouts), "empty-cells")
}

// BenchmarkFigure2a regenerates Figure 2a (clusters vs evaluated
// configurations, DD vs GA).
func BenchmarkFigure2a(b *testing.B) {
	var pts []report.Point
	for i := 0; i < b.N; i++ {
		pts = fullStudy(b).Figure2aData()
	}
	maxDD, maxGA := 0.0, 0.0
	for _, p := range pts {
		if p.Algorithm == "DD" && p.Y > maxDD {
			maxDD = p.Y
		}
		if p.Algorithm == "GA" && p.Y > maxGA {
			maxGA = p.Y
		}
	}
	// The paper's observation: DD's evaluation count can greatly exceed
	// GA's nearly constant one.
	b.ReportMetric(maxDD, "max-DD-evals")
	b.ReportMetric(maxGA, "max-GA-evals")
}

// BenchmarkFigure2b regenerates Figure 2b (clusters vs speedup, DD vs GA).
func BenchmarkFigure2b(b *testing.B) {
	var pts []report.Point
	for i := 0; i < b.N; i++ {
		pts = fullStudy(b).Figure2bData()
	}
	bestDD := 0.0
	for _, p := range pts {
		if p.Algorithm == "DD" && p.Y > bestDD {
			bestDD = p.Y
		}
	}
	b.ReportMetric(bestDD, "best-DD-speedup")
}

// BenchmarkFigure3 regenerates Figure 3 (tested configurations vs speedup
// over every search scenario) and reports how many scenarios land in the
// paper's dominant 1.0-1.2x band.
func BenchmarkFigure3(b *testing.B) {
	var pts []report.Point
	for i := 0; i < b.N; i++ {
		pts = fullStudy(b).Figure3Data()
	}
	inBand := 0
	for _, p := range pts {
		if p.Y >= 1.0 && p.Y <= 1.2 {
			inBand++
		}
	}
	b.ReportMetric(float64(len(pts)), "scenarios")
	b.ReportMetric(float64(inBand), "speedup-1.0-1.2")
}

// BenchmarkAblationCacheStep quantifies the cache-capacity step the
// DESIGN calls out: LavaMD's full-single speedup under the calibrated
// hierarchy versus a flat-memory machine that can only reward traffic
// halving. Without the step the speedup collapses toward the sub-2x
// regime, demonstrating that LavaMD's headline number is a working-set
// effect, exactly the paper's insight.
func BenchmarkAblationCacheStep(b *testing.B) {
	lavamd, err := mixpbench.Benchmark("lavamd")
	if err != nil {
		b.Fatal(err)
	}
	var withStep, flat float64
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(report.Seed)
		ref := r.Reference(lavamd)
		single := r.RunManualSingle(lavamd)
		withStep = ref.Measured.Mean / single.Measured.Mean

		flatMachine := perfmodel.Default()
		flatMachine.Caches = nil // every access at DRAM bandwidth
		r.Machine = flatMachine
		refFlat := r.Reference(lavamd)
		singleFlat := r.RunManualSingle(lavamd)
		flat = refFlat.Measured.Mean / singleFlat.Measured.Mean
	}
	b.ReportMetric(withStep, "speedup-with-cache-step")
	b.ReportMetric(flat, "speedup-flat-memory")
	if withStep <= flat {
		b.Fatalf("cache step had no effect: %.2f vs %.2f", withStep, flat)
	}
}

// BenchmarkAblationClusterSearch quantifies the paper's clustering
// insight: delta debugging over Typeforge clusters versus the same
// strategy over raw variables on CFD (195 variables, 25 clusters). The
// variable-level search proposes cluster-splitting configurations that
// fail to compile, inflating the evaluation count for the same result.
func BenchmarkAblationClusterSearch(b *testing.B) {
	cfd, err := mixpbench.Benchmark("cfd")
	if err != nil {
		b.Fatal(err)
	}
	var evCluster, evVariable int
	for i := 0; i < b.N; i++ {
		for _, mode := range []search.Mode{search.ByCluster, search.ByVariable} {
			space := search.NewSpace(cfd.Graph(), mode)
			// 1e-8 forces real bisection (the whole program fails at once).
			eval := search.NewEvaluator(space, bench.NewRunner(report.Seed), cfd, 1e-8)
			out := search.DeltaDebug{}.Search(eval)
			if mode == search.ByCluster {
				evCluster = out.Evaluated
			} else {
				evVariable = out.Evaluated
			}
		}
	}
	b.ReportMetric(float64(evCluster), "DD-evals-clusters")
	b.ReportMetric(float64(evVariable), "DD-evals-variables")
	if evVariable <= evCluster {
		b.Fatalf("variable-level search should waste evaluations: %d vs %d", evVariable, evCluster)
	}
}

// BenchmarkVerificationMetrics measures the verification library on a
// realistic output size (the per-configuration cost every search
// evaluation pays).
func BenchmarkVerificationMetrics(b *testing.B) {
	ref := make([]float64, 1<<16)
	got := make([]float64, 1<<16)
	for i := range ref {
		ref[i] = float64(i)
		got[i] = float64(i) + 1e-9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verify.Check(verify.MAE, ref, got, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorThroughput measures raw configuration evaluations per
// second on a kernel - the quantity that bounds how much search the
// simulated 24-hour budget can afford in real time.
func BenchmarkEvaluatorThroughput(b *testing.B) {
	k, err := mixpbench.Benchmark("innerprod")
	if err != nil {
		b.Fatal(err)
	}
	space := search.NewSpace(k.Graph(), search.ByCluster)
	eval := search.NewEvaluator(space, bench.NewRunner(report.Seed), k, 1e-8)
	eval.SetBudget(math.Inf(1))
	sets := []search.Set{search.FullSet(space.NumUnits())}
	for u := 0; u < space.NumUnits(); u++ {
		s := search.NewSet(space.NumUnits())
		s.Add(u)
		sets = append(sets, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(sets[i%len(sets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIRLevel quantifies the paper's source-vs-IR insight on
// LavaMD: an IR-level tool narrows the arithmetic but cannot retype the
// allocations, so the working set stays above the cache boundary and the
// cache-step speedup never materialises. "Such opportunities cannot be
// discovered from tools that operate on the intermediate representation
// of the compiler ... the application memory is not changed."
func BenchmarkAblationIRLevel(b *testing.B) {
	lavamd, err := mixpbench.Benchmark("lavamd")
	if err != nil {
		b.Fatal(err)
	}
	n := lavamd.Graph().NumVars()
	var sourceSU, irSU float64
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(report.Seed)
		ref := r.Reference(lavamd)
		source := r.Run(lavamd, bench.AllSingle(n))
		ir := r.RunIR(lavamd, bench.AllSingle(n))
		sourceSU = ref.Measured.Mean / source.Measured.Mean
		irSU = ref.Measured.Mean / ir.Measured.Mean
	}
	b.ReportMetric(sourceSU, "source-level-speedup")
	b.ReportMetric(irSU, "ir-level-speedup")
	if irSU >= sourceSU {
		b.Fatalf("IR-level demotion should trail source level: %.2f vs %.2f", irSU, sourceSU)
	}
}

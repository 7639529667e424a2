package report

import (
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/suite"
)

// kernelStudy is shared by the tests; running it once keeps the suite
// fast.
var kernelStudy = Run(Options{Workers: 2, KernelsOnly: true})

func TestTableIListsAllKernels(t *testing.T) {
	out := TableI()
	for _, name := range []string{
		"banded-lin-eq", "diff-predictor", "eos", "gen-lin-recur",
		"hydro-1d", "iccg", "innerprod", "int-predict", "planckian", "tridiag",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("Table I missing %s", name)
		}
	}
	if !strings.Contains(out, "Banded linear systems solution") {
		t.Error("Table I missing a description")
	}
}

func TestTableIIMatchesPaper(t *testing.T) {
	out := TableII()
	// Spot-check the most distinctive rows.
	for _, frag := range []string{"CFD", "195", "Blackscholes", "59", "LavaMD", "47"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table II missing %q", frag)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	s := kernelStudy
	// Every kernel has a report from every algorithm.
	if len(s.Kernel) != 10 {
		t.Fatalf("kernel study covers %d kernels", len(s.Kernel))
	}
	for name, algos := range s.Kernel {
		if len(algos) != 6 {
			t.Errorf("%s: %d algorithm reports", name, len(algos))
		}
		for algo, r := range algos {
			if r.TimedOut {
				t.Errorf("%s/%s timed out on a kernel", name, algo)
			}
		}
	}
	// The paper's headline kernel results, by shape:
	// banded-lin-eq demotes with a cache-step speedup > 2 for every
	// algorithm.
	for _, algo := range KernelAlgorithms {
		if su := s.Kernel["banded-lin-eq"][algo].Speedup; su < 2 {
			t.Errorf("banded-lin-eq/%s speedup = %.2f, want > 2", algo, su)
		}
	}
	// tridiag and gen-lin-recur do not demote: speedups stay near 1.
	for _, k := range []string{"tridiag", "gen-lin-recur", "planckian"} {
		for _, algo := range KernelAlgorithms {
			if su := s.Kernel[k][algo].Speedup; su < 0.9 || su > 1.1 {
				t.Errorf("%s/%s speedup = %.2f, want ~1.0", k, algo, su)
			}
		}
	}
	// Kernel qualities sit at or below the 1e-8 threshold.
	for name, algos := range s.Kernel {
		for algo, r := range algos {
			if math.IsNaN(r.Quality) || r.Quality > KernelThreshold {
				t.Errorf("%s/%s quality = %g exceeds threshold", name, algo, r.Quality)
			}
		}
	}
}

func TestTableIIIRendering(t *testing.T) {
	out := kernelStudy.TableIII()
	for _, frag := range []string{"Quality(1e-9)", "Evaluated Configs", "Speedup", "hydro-1d", "CB", "GA"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table III missing %q", frag)
		}
	}
}

func TestKernelStudyDeterminism(t *testing.T) {
	again := Run(Options{Workers: 2, KernelsOnly: true})
	for name, algos := range kernelStudy.Kernel {
		for algo, r := range algos {
			r2 := again.Kernel[name][algo]
			if r.Evaluated != r2.Evaluated || r.Speedup != r2.Speedup || r.Quality != r2.Quality {
				t.Errorf("%s/%s differs between runs: %+v vs %+v", name, algo, r, r2)
			}
		}
	}
}

// TestStudySpecs checks the study's campaign entries: Table III's 60 and
// Table V's 105, every one resolvable, each under its own name and cell,
// and Table V threshold-major in AppThresholds order.
func TestStudySpecs(t *testing.T) {
	kernels, apps := KernelSpecs(), AppSpecs()
	if len(kernels) != 60 || len(apps) != 105 {
		t.Fatalf("spec lists have %d and %d entries, want 60 and 105", len(kernels), len(apps))
	}
	jobs, err := harness.JobsFromSpecs(slices.Concat(kernels, apps), Seed)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		threshold float64
		program   string
		algorithm string
	}
	names := map[string]bool{}
	cells := map[cell]bool{}
	for i, j := range jobs {
		if names[j.Spec.Name] {
			t.Errorf("entry %d: name %q repeats", i, j.Spec.Name)
		}
		names[j.Spec.Name] = true
		c := cell{j.Spec.Analysis.Threshold, j.Benchmark.Name(), j.Spec.Analysis.Algorithm}
		if cells[c] {
			t.Errorf("entry %d (%s): cell %+v repeats", i, j.Spec.Name, c)
		}
		cells[c] = true
	}
	for _, s := range kernels {
		if s.Analysis.Threshold != KernelThreshold {
			t.Errorf("%s: threshold %g, want %g", s.Name, s.Analysis.Threshold, KernelThreshold)
		}
	}
	perThreshold := len(apps) / len(AppThresholds)
	for i, s := range apps {
		if want := AppThresholds[i/perThreshold]; s.Analysis.Threshold != want {
			t.Errorf("Table V entry %d (%s): threshold %g, want %g", i, s.Name, s.Analysis.Threshold, want)
		}
	}
	if got := apps[0].Name; got != "blackscholes-cm-1e-03" {
		t.Errorf("first Table V entry is %q", got)
	}
}

// TestRunIsKernelCampaign checks that a kernels-only study is the
// library's campaign over KernelSpecs: the same Table III reports, and
// one progress line per job.
func TestRunIsKernelCampaign(t *testing.T) {
	var lines []string
	study := Run(Options{Workers: 2, KernelsOnly: true, Progress: func(m string) { lines = append(lines, m) }})
	if len(lines) != 60 {
		t.Errorf("Progress called %d times, want 60", len(lines))
	}
	results, err := harness.RunCampaign(KernelSpecs(), harness.CampaignOptions{Workers: 2, Seed: Seed})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, algos := range study.Kernel {
		n += len(algos)
	}
	if n != len(results) {
		t.Errorf("study holds %d Table III reports, campaign %d", n, len(results))
	}
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		r := jr.Report
		if got := study.Kernel[r.Benchmark][r.Algorithm]; !reflect.DeepEqual(got, r) {
			t.Errorf("%s/%s: study report %+v, campaign report %+v", r.Benchmark, r.Algorithm, got, r)
		}
	}
}

func TestFigure3DataFromKernels(t *testing.T) {
	pts := kernelStudy.Figure3Data()
	if len(pts) != 60 { // 10 kernels x 6 algorithms
		t.Fatalf("figure 3 has %d kernel points, want 60", len(pts))
	}
	for _, p := range pts {
		if p.X < 1 {
			t.Errorf("%s/%s: EV = %g < 1", p.Label, p.Algorithm, p.X)
		}
		if p.Y <= 0 || math.IsNaN(p.Y) {
			t.Errorf("%s/%s: speedup = %g", p.Label, p.Algorithm, p.Y)
		}
	}
	csv := FigureCSV("test", pts)
	if !strings.Contains(csv, "label,algorithm,threshold,x,y") {
		t.Error("CSV header missing")
	}
	if strings.Count(csv, "\n") != len(pts)+2 {
		t.Error("CSV row count mismatch")
	}
}

func TestAsciiScatter(t *testing.T) {
	pts := []Point{
		{Label: "a", Algorithm: "DD", X: 1, Y: 1},
		{Label: "b", Algorithm: "GA", X: 100, Y: 2},
	}
	out := asciiScatter(pts, "x", "y", true)
	if !strings.Contains(out, "D") || !strings.Contains(out, "G") {
		t.Errorf("scatter lacks markers:\n%s", out)
	}
	if asciiScatter(nil, "x", "y", false) != "(no data)\n" {
		t.Error("empty scatter output wrong")
	}
}

func TestSortPoints(t *testing.T) {
	pts := []Point{
		{Label: "b", Algorithm: "GA", Threshold: 1e-3},
		{Label: "a", Algorithm: "DD", Threshold: 1e-8},
		{Label: "a", Algorithm: "DD", Threshold: 1e-3},
	}
	SortPoints(pts)
	if pts[0].Algorithm != "DD" || pts[0].Threshold != 1e-3 {
		t.Errorf("sort order wrong: %+v", pts[0])
	}
	if pts[2].Algorithm != "GA" {
		t.Errorf("sort order wrong: %+v", pts[2])
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := formatThreshold(1e-3); got != "1e-3" {
		t.Errorf("formatThreshold = %q", got)
	}
	if got := formatThreshold(1e-8); got != "1e-8" {
		t.Errorf("formatThreshold = %q", got)
	}
	if got := formatQuality(math.NaN(), 1); got != "NaN" {
		t.Errorf("NaN quality = %q", got)
	}
	if got := formatQuality(0, 1); got != "0" {
		t.Errorf("zero quality = %q", got)
	}
	if got := formatQuality(5e-9, 1e-9); got != "5" {
		t.Errorf("scaled quality = %q", got)
	}
}

func TestPaperDataCoversSuite(t *testing.T) {
	if len(PaperTableIV) != 7 {
		t.Errorf("paper Table IV rows = %d", len(PaperTableIV))
	}
	if len(PaperTableIIISpeedups) != 10 {
		t.Errorf("paper Table III rows = %d", len(PaperTableIIISpeedups))
	}
	for th, rows := range PaperTableVSpeedups {
		if len(rows) != 7 {
			t.Errorf("paper Table V at %g: %d rows", th, len(rows))
		}
	}
}

func TestTextTablePanicsOnRaggedRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged row")
		}
	}()
	w := newTextTable("a", "b")
	w.row("only-one")
}

// fakeFullStudy builds a minimal synthetic full study so Compare and the
// figure renderers can be tested without the expensive campaign.
func fakeFullStudy() *Study {
	s := Run(Options{Workers: 2, KernelsOnly: true})
	s.App = map[float64]map[string]map[string]harness.Report{}
	for _, th := range AppThresholds {
		s.App[th] = map[string]map[string]harness.Report{}
		for _, a := range suite.Apps() {
			s.App[th][a.Name()] = map[string]harness.Report{}
			for _, algo := range AppAlgorithms {
				rep := harness.Report{
					Benchmark: a.Name(), Algorithm: algo, Threshold: th,
					Evaluated: 10, Speedup: 1.05, Quality: 0, Found: true,
					Clusters: a.Graph().NumClusters(), Variables: a.Graph().NumVars(),
				}
				if a.Name() == "LavaMD" {
					if th == 1e-3 {
						rep.Speedup = 2.5
					} else {
						rep.Speedup = 1.0
					}
				}
				if algo == "CM" && a.Name() == "Blackscholes" {
					rep = harness.Report{Benchmark: a.Name(), Algorithm: algo,
						Threshold: th, TimedOut: true,
						Speedup: math.NaN(), Quality: math.NaN()}
				}
				if algo == "DD" && a.Name() == "Blackscholes" {
					rep.Evaluated = 10 + int(1/th)
				}
				s.App[th][a.Name()][algo] = rep
			}
		}
	}
	s.Conversion = map[string]ConversionRow{}
	for _, a := range suite.Apps() {
		s.Conversion[a.Name()] = ConversionRow{App: a.Name(), Speedup: 1.2,
			Metric: a.Metric(), QualityLoss: 1e-6}
	}
	return s
}

func TestTableIVAndVRendering(t *testing.T) {
	s := fakeFullStudy()
	four := s.TableIV()
	if !strings.Contains(four, "LavaMD") || !strings.Contains(four, "MCR") {
		t.Error("Table IV incomplete")
	}
	five := s.TableV()
	for _, frag := range []string{"threshold 1e-3", "threshold 1e-8", "Blackscholes", "Speedup", "Quality"} {
		if !strings.Contains(five, frag) {
			t.Errorf("Table V missing %q", frag)
		}
	}
}

func TestCellFilled(t *testing.T) {
	if CellFilled(harness.Report{TimedOut: true, Speedup: math.NaN()}) {
		t.Error("pure timeout should render empty")
	}
	if !CellFilled(harness.Report{Found: true, Speedup: 1.2}) {
		t.Error("found report should render")
	}
}

func TestFigure2Data(t *testing.T) {
	s := fakeFullStudy()
	a := s.Figure2aData()
	bp := s.Figure2bData()
	// DD and GA at 3 thresholds x 7 apps, minus nothing (all filled for
	// DD/GA in the fake study).
	if len(a) != 42 || len(bp) != 42 {
		t.Errorf("figure 2 sizes = %d, %d, want 42", len(a), len(bp))
	}
	for _, p := range a {
		if p.Algorithm != "DD" && p.Algorithm != "GA" {
			t.Errorf("figure 2 includes %s", p.Algorithm)
		}
	}
}

func TestCompareMentionsEveryBenchmark(t *testing.T) {
	s := fakeFullStudy()
	out := s.Compare()
	for _, b := range suite.All() {
		if !strings.Contains(out, b.Name()) {
			t.Errorf("comparison missing %s", b.Name())
		}
	}
	for _, frag := range []string{"REPRODUCED", "Table III", "Table IV", "Table V", "Shape summary"} {
		if !strings.Contains(out, frag) {
			t.Errorf("comparison missing %q", frag)
		}
	}
}

func TestFigureRenderersOnFakeStudy(t *testing.T) {
	s := fakeFullStudy()
	for name, out := range map[string]string{
		"2a": s.Figure2a(), "2b": s.Figure2b(), "3": s.Figure3(),
	} {
		if !strings.Contains(out, "label,algorithm,threshold,x,y") {
			t.Errorf("figure %s missing CSV header", name)
		}
		if !strings.Contains(out, "x:") || !strings.Contains(out, "y:") {
			t.Errorf("figure %s missing scatter axes", name)
		}
	}
}

// TestGoldenTables locks the static tables' rendering byte-for-byte: the
// inventory content is the paper's, and the layout is part of the CLI
// contract.
func TestGoldenTables(t *testing.T) {
	cases := map[string]string{
		"testdata/table1.golden": TableI(),
		"testdata/table2.golden": TableII(),
	}
	for path, got := range cases {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got != string(want) {
			t.Errorf("%s: rendering changed;\n got:\n%s\nwant:\n%s", path, got, want)
		}
	}
}

// TestStudyIndependentOfWorkerCount checks that the scheduler's pool size
// never leaks into results: the kernel study must be identical at 1, 2,
// and 4 workers.
func TestStudyIndependentOfWorkerCount(t *testing.T) {
	base := Run(Options{Workers: 1, KernelsOnly: true})
	for _, workers := range []int{2, 4} {
		other := Run(Options{Workers: workers, KernelsOnly: true})
		for name, algos := range base.Kernel {
			for algo, r := range algos {
				o := other.Kernel[name][algo]
				if r.Evaluated != o.Evaluated || r.Speedup != o.Speedup || r.Quality != o.Quality {
					t.Errorf("workers=%d: %s/%s differs: %+v vs %+v", workers, name, algo, r, o)
				}
			}
		}
	}
}

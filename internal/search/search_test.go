package search

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/mp"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// fakeBench is a tiny benchmark with a controllable error surface: three
// clusters {a0,a1}, {b}, {c}; demoting each contributes a known error and
// a known amount of saved work.
type fakeBench struct {
	graph *typedep.Graph
	// errs maps cluster index -> error contribution when demoted.
	errs [3]float64
	// gain maps cluster index -> flops moved from f64 to f32.
	gain [3]uint64
}

func newFakeBench(errs [3]float64) *fakeBench {
	g := typedep.NewGraph()
	a0 := g.Add("a0", "f", typedep.ArrayVar)
	a1 := g.Add("a1", "f", typedep.Param)
	g.Connect(a0, a1)
	g.Add("b", "f", typedep.Scalar)
	g.Add("c", "g", typedep.Scalar)
	return &fakeBench{graph: g, errs: errs, gain: [3]uint64{6e6, 3e6, 1e6}}
}

func (f *fakeBench) Name() string          { return "fake" }
func (f *fakeBench) Kind() bench.Kind      { return bench.Kernel }
func (f *fakeBench) Description() string   { return "synthetic search target" }
func (f *fakeBench) Metric() verify.Metric { return verify.MAE }
func (f *fakeBench) Graph() *typedep.Graph { return f.graph }

func (f *fakeBench) Run(t *mp.Tape, seed int64) bench.Output {
	clusters := f.graph.Clusters()
	out := 1.0
	for i, c := range clusters {
		if t.Prec(c.Members[0]) == mp.F32 {
			out += f.errs[i]
			t.AddFlops(mp.F32, f.gain[i])
		} else {
			t.AddFlops(mp.F64, f.gain[i])
		}
	}
	return bench.Output{Values: []float64{out}}
}

func newEval(t *testing.T, b bench.Benchmark, mode Mode, threshold float64) *Evaluator {
	t.Helper()
	space := NewSpace(b.Graph(), mode)
	return NewEvaluator(space, bench.NewRunner(1), b, threshold)
}

func TestSpaceModes(t *testing.T) {
	b := newFakeBench([3]float64{0, 0, 0})
	byC := NewSpace(b.Graph(), ByCluster)
	if byC.NumUnits() != 3 {
		t.Errorf("cluster units = %d, want 3", byC.NumUnits())
	}
	byV := NewSpace(b.Graph(), ByVariable)
	if byV.NumUnits() != 4 {
		t.Errorf("variable units = %d, want 4", byV.NumUnits())
	}
}

func TestExpandValidity(t *testing.T) {
	b := newFakeBench([3]float64{0, 0, 0})
	byV := NewSpace(b.Graph(), ByVariable)
	// Selecting only a0 splits the {a0,a1} cluster.
	half := NewSet(4)
	half.Add(0)
	if _, valid := byV.Expand(half, false); valid {
		t.Error("cluster-splitting selection reported valid")
	}
	// With Typeforge expansion the same selection pulls a1 and compiles.
	cfg, valid := byV.Expand(half, true)
	if !valid {
		t.Error("expanded selection reported invalid")
	}
	if cfg[0] != mp.F32 || cfg[1] != mp.F32 {
		t.Error("expansion did not pull the cluster")
	}
}

// TestByClusterExpandAlwaysValid locks the reason Expand skips
// Graph.Valid on ByCluster spaces: every unit is a whole cluster, so any
// rung assignment, on any port's graph and any ladder, compiles.
func TestByClusterExpandAlwaysValid(t *testing.T) {
	ladder, err := mp.ParseLadder("f64,f32,bf16")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(kernels.All(), apps.All()...) {
		space := NewSpaceWithLadder(b.Graph(), ByCluster, ladder)
		n := space.NumUnits()
		for k := 0; k < 64; k++ {
			set := NewSet(n)
			for i := 0; i < n; i++ {
				set.SetRung(i, uint8((i*7+k*3+i*k)%3))
			}
			cfg, valid := space.Expand(set, false)
			if !valid || !b.Graph().Valid(func(v mp.VarID) mp.Prec { return cfg[v] }) {
				t.Fatalf("%s: set %d: Expand valid %v, Graph.Valid disagrees or refuses", b.Name(), k, valid)
			}
		}
	}
}

func TestEvaluatorCachingAndEV(t *testing.T) {
	b := newFakeBench([3]float64{0, 0, 0})
	e := newEval(t, b, ByCluster, 1e-8)
	s := NewSet(3)
	s.Add(1)
	if _, err := e.Evaluate(s); err != nil {
		t.Fatal(err)
	}
	if e.Evaluated() != 1 {
		t.Fatalf("EV = %d after first eval", e.Evaluated())
	}
	spent := e.Spent()
	if _, err := e.Evaluate(s); err != nil {
		t.Fatal(err)
	}
	if e.Evaluated() != 1 {
		t.Errorf("cache hit incremented EV to %d", e.Evaluated())
	}
	if e.Spent() != spent {
		t.Errorf("cache hit charged budget")
	}
	// The empty selection is the pre-seeded baseline: free.
	if r, err := e.Evaluate(NewSet(3)); err != nil || !r.Passed || r.Speedup != 1.0 {
		t.Errorf("baseline eval = %+v, %v", r, err)
	}
	if e.Evaluated() != 1 {
		t.Errorf("baseline counted as EV")
	}
}

func TestEvaluatorBudget(t *testing.T) {
	b := newFakeBench([3]float64{0, 0, 0})
	e := newEval(t, b, ByCluster, 1e-8)
	e.SetBudget(e.Spent()) // nothing left
	s := NewSet(3)
	s.Add(0)
	if _, err := e.Evaluate(s); err != ErrBudgetExhausted {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestEvaluatorRejectsWrongCapacity(t *testing.T) {
	b := newFakeBench([3]float64{0, 0, 0})
	e := newEval(t, b, ByCluster, 1e-8)
	if _, err := e.Evaluate(NewSet(2)); err == nil {
		t.Error("expected capacity mismatch error")
	}
}

func TestInvalidSelectionCountsButFails(t *testing.T) {
	b := newFakeBench([3]float64{0, 0, 0})
	e := newEval(t, b, ByVariable, 1e-8)
	half := NewSet(4)
	half.Add(0) // splits {a0,a1}
	r, err := e.Evaluate(half)
	if err != nil {
		t.Fatal(err)
	}
	if r.Valid || r.Passed {
		t.Errorf("split-cluster result = %+v, want invalid fail", r)
	}
	if e.Evaluated() != 1 {
		t.Errorf("invalid selection not counted: EV = %d", e.Evaluated())
	}
}

// errsAllPass makes every demotion pass; errsOnlyB makes cluster 1 the
// only individually passing one.
var (
	errsAllPass = [3]float64{0, 0, 0}
	errsMixed   = [3]float64{1e-3, 0, 1e-3} // only cluster 1 passes at 1e-8
)

func TestCombinationalFindsGlobalBest(t *testing.T) {
	b := newFakeBench(errsMixed)
	e := newEval(t, b, ByCluster, 1e-8)
	out := Combinational{}.Search(e)
	if !out.Found {
		t.Fatal("CB found nothing")
	}
	// Only cluster 1 can be demoted; best must be exactly {1}.
	if out.Best.String() != "010" {
		t.Errorf("CB best = %s, want 010", out.Best)
	}
	if out.Evaluated != 7 {
		t.Errorf("CB EV = %d, want 7 (all non-empty subsets)", out.Evaluated)
	}
	if out.TimedOut {
		t.Error("CB timed out")
	}
}

func TestCombinationalAllPass(t *testing.T) {
	b := newFakeBench(errsAllPass)
	e := newEval(t, b, ByCluster, 1e-8)
	out := Combinational{}.Search(e)
	if !out.Found || out.Best.Count() != 3 {
		t.Errorf("CB best = %v (found=%v), want full set", out.Best, out.Found)
	}
	if out.BestResult.Speedup <= 1 {
		t.Errorf("full demotion speedup = %g", out.BestResult.Speedup)
	}
}

func TestDeltaDebugConvergesToMaximalSet(t *testing.T) {
	b := newFakeBench(errsMixed)
	e := newEval(t, b, ByCluster, 1e-8)
	out := DeltaDebug{}.Search(e)
	if !out.Found {
		t.Fatal("DD found nothing")
	}
	if out.Best.String() != "010" {
		t.Errorf("DD best = %s, want 010", out.Best)
	}
}

func TestDeltaDebugFastPathWhenAllPass(t *testing.T) {
	b := newFakeBench(errsAllPass)
	e := newEval(t, b, ByCluster, 1e-8)
	out := DeltaDebug{}.Search(e)
	if !out.Found || out.Best.Count() != 3 {
		t.Fatalf("DD best = %v", out.Best)
	}
	if out.Evaluated != 1 {
		t.Errorf("DD EV = %d, want 1 (whole program passes at once)", out.Evaluated)
	}
}

func TestCompositionalComposesPassing(t *testing.T) {
	b := newFakeBench(errsAllPass)
	e := newEval(t, b, ByVariable, 1e-8)
	out := Compositional{}.Search(e)
	if !out.Found {
		t.Fatal("CM found nothing")
	}
	// Everything passes individually and composes to the full program.
	if out.BestResult.Speedup <= 1 {
		t.Errorf("CM best speedup = %g", out.BestResult.Speedup)
	}
	cfg, _ := e.Space().Expand(out.Best, true)
	if cfg.Singles() != 4 {
		t.Errorf("CM best demotes %d vars, want 4", cfg.Singles())
	}
}

func TestHierarchicalAcceptsWholeProgramFirst(t *testing.T) {
	b := newFakeBench(errsAllPass)
	e := newEval(t, b, ByVariable, 1e-8)
	out := Hierarchical{}.Search(e)
	if !out.Found {
		t.Fatal("HR found nothing")
	}
	if out.Evaluated != 1 {
		t.Errorf("HR EV = %d, want 1 (root accepted)", out.Evaluated)
	}
	if out.Best.Count() != 4 {
		t.Errorf("HR accepted %d units", out.Best.Count())
	}
}

func TestHierarchicalDescendsOnFailure(t *testing.T) {
	b := newFakeBench(errsMixed)
	e := newEval(t, b, ByVariable, 1e-8)
	out := Hierarchical{}.Search(e)
	// Root fails; group f = {a0,a1,b} fails; leaves a0, a1 split the
	// cluster (invalid), leaf b passes; group g = {c} fails.
	if !out.Found {
		t.Fatal("HR found nothing")
	}
	cfg, valid := e.Space().Expand(out.Best, false)
	if !valid {
		t.Error("HR returned a non-compiling selection")
	}
	if cfg.Singles() != 1 {
		t.Errorf("HR demotes %d vars, want 1 (b only)", cfg.Singles())
	}
	if out.Evaluated <= 2 {
		t.Errorf("HR EV = %d, expected several (descending)", out.Evaluated)
	}
}

func TestHierCompComposesComponents(t *testing.T) {
	b := newFakeBench(errsAllPass)
	e := newEval(t, b, ByVariable, 1e-8)
	out := HierComp{}.Search(e)
	if !out.Found {
		t.Fatal("HC found nothing")
	}
	if out.Evaluated != 1 {
		t.Errorf("HC EV = %d, want 1 (root is a component)", out.Evaluated)
	}
}

func TestGeneticIsDeterministicPerSeed(t *testing.T) {
	b := newFakeBench(errsMixed)
	run := func(seed int64) Outcome {
		e := newEval(t, b, ByCluster, 1e-8)
		return NewGenetic(seed).Search(e)
	}
	a1, a2 := run(7), run(7)
	if a1.Found != a2.Found || a1.Evaluated != a2.Evaluated ||
		(a1.Found && !a1.Best.Equal(a2.Best)) {
		t.Error("GA not deterministic for a fixed seed")
	}
}

func TestGeneticFindsPassingConfig(t *testing.T) {
	b := newFakeBench(errsAllPass)
	e := newEval(t, b, ByCluster, 1e-8)
	out := NewGenetic(3).Search(e)
	if !out.Found {
		t.Fatal("GA found nothing on an all-pass surface")
	}
	if out.BestResult.Speedup < 1 {
		t.Errorf("GA best speedup = %g", out.BestResult.Speedup)
	}
}

func TestTimeoutsPropagate(t *testing.T) {
	b := newFakeBench(errsAllPass)
	for _, name := range AlgorithmNames {
		algo, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := newEval(t, b, algo.Mode(), 1e-8)
		e.SetBudget(e.Spent()) // no budget for any evaluation
		out := algo.Search(e)
		if !out.TimedOut {
			t.Errorf("%s: TimedOut = false with zero budget", name)
		}
		if out.Found {
			t.Errorf("%s: Found = true with zero budget", name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range AlgorithmNames {
		a, err := ByName(name, 0)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, a.Name())
		}
	}
	if _, err := ByName("nope", 0); err == nil {
		t.Error("expected error for unknown algorithm")
	}
	// Granularities per the paper's Section IV-A.
	modes := map[string]Mode{"CB": ByCluster, "CM": ByVariable, "DD": ByCluster,
		"HR": ByVariable, "HC": ByVariable, "GA": ByCluster}
	for name, want := range modes {
		a, _ := ByName(name, 0)
		if a.Mode() != want {
			t.Errorf("%s mode = %v, want %v", name, a.Mode(), want)
		}
	}
}

// TestAllAlgorithmsOnRealKernel exercises every strategy end-to-end on a
// real benchmark (hydro-1d) and checks the invariants that hold for any
// correct strategy: the returned configuration compiles, passes the
// threshold, and EV is positive.
func TestAllAlgorithmsOnRealKernel(t *testing.T) {
	k := kernels.NewHydro1D()
	for _, name := range AlgorithmNames {
		name := name
		t.Run(name, func(t *testing.T) {
			algo, err := ByName(name, 99)
			if err != nil {
				t.Fatal(err)
			}
			space := NewSpace(k.Graph(), algo.Mode())
			e := NewEvaluator(space, bench.NewRunner(42), k, 1e-8)
			out := algo.Search(e)
			if out.TimedOut {
				t.Fatalf("%s timed out on a kernel", name)
			}
			if !out.Found {
				t.Fatalf("%s found nothing on hydro-1d at 1e-8", name)
			}
			if !out.BestResult.Passed {
				t.Error("best result does not pass")
			}
			if out.Evaluated <= 0 {
				t.Error("EV not positive")
			}
			cfg, valid := space.Expand(out.Best, algo.Name() == "CM")
			if !valid {
				t.Errorf("%s returned a non-compiling config %s", name, out.Best)
			}
			if cfg.Singles() == 0 {
				t.Errorf("%s returned the original program", name)
			}
			t.Logf("%s: EV=%d SU=%.3f err=%.3g singles=%d",
				name, out.Evaluated, out.BestResult.Speedup,
				out.BestResult.Verdict.Error, cfg.Singles())
		})
	}
}

func TestEvaluatorTrace(t *testing.T) {
	b := newFakeBench(errsMixed)
	e := newEval(t, b, ByCluster, 1e-8)
	e.SetTrace(true)
	out := DeltaDebug{}.Search(e)
	trace := e.Trace()
	if len(trace) != out.Evaluated {
		t.Fatalf("trace has %d entries, EV = %d", len(trace), out.Evaluated)
	}
	for i, entry := range trace {
		if entry.Seq != i+1 {
			t.Errorf("entry %d has Seq %d", i, entry.Seq)
		}
		if len(entry.Config) != b.Graph().NumVars() {
			t.Errorf("entry %d config %q has wrong width", i, entry.Config)
		}
		if entry.SpentSeconds <= 0 {
			t.Errorf("entry %d has no spent time", i)
		}
	}
	// Spent time must be non-decreasing.
	for i := 1; i < len(trace); i++ {
		if trace[i].SpentSeconds < trace[i-1].SpentSeconds {
			t.Error("spent time decreased along the trace")
		}
	}
	// Tracing off by default: a fresh evaluator records nothing.
	e2 := newEval(t, b, ByCluster, 1e-8)
	DeltaDebug{}.Search(e2)
	if len(e2.Trace()) != 0 {
		t.Error("trace recorded while disabled")
	}
}

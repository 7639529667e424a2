package search

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/mp"
)

// fourRung is the deepest standard ladder: double, single, half, bfloat16.
func fourRung(t *testing.T) mp.Ladder {
	t.Helper()
	l, err := mp.ParseLadder("f64,f32,f16,bf16")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAllAlgorithmsOnLadder exercises every strategy - the paper's six
// plus the extensions - end-to-end on a real kernel over a four-rung
// ladder. The threshold is loose enough that half-precision formats
// pass, so a correct staged search must descend past single precision:
// the best configuration has to carry at least one sub-single format.
func TestAllAlgorithmsOnLadder(t *testing.T) {
	k := kernels.NewHydro1D()
	ladder := fourRung(t)
	names := append(append([]string{}, AlgorithmNames...), ExtensionNames...)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			algo, err := ByName(name, 99)
			if err != nil {
				t.Fatal(err)
			}
			space := NewSpaceWithLadder(k.Graph(), algo.Mode(), ladder)
			e := NewEvaluator(space, bench.NewRunner(42), k, 1e-2)
			out := algo.Search(e)
			if out.TimedOut {
				t.Fatalf("%s timed out on a kernel", name)
			}
			if !out.Found {
				t.Fatalf("%s found nothing on hydro-1d at 1e-2", name)
			}
			if !out.BestResult.Passed {
				t.Error("best result does not pass")
			}
			cfg, valid := space.Expand(out.Best, algo.Name() == "CM")
			if !valid {
				t.Errorf("%s returned a non-compiling config %s", name, out.Best)
			}
			deep := 0
			for _, p := range cfg {
				if p == mp.F16 || p == mp.BF16 {
					deep++
				}
			}
			if deep == 0 {
				t.Errorf("%s never descended below single precision on a 1e-2 threshold (best %s)",
					name, out.Best)
			}
			t.Logf("%s: EV=%d SU=%.3f err=%.3g demoted=%d sub-single=%d",
				name, out.Evaluated, out.BestResult.Speedup,
				out.BestResult.Verdict.Error, cfg.Demoted(), deep)
		})
	}
}

// TestLadderSearchDeterministic locks per-algorithm determinism on a
// ladder: two independent evaluators over the same four-rung space
// produce identical outcomes and identical evaluation counts.
func TestLadderSearchDeterministic(t *testing.T) {
	k := kernels.NewHydro1D()
	ladder := fourRung(t)
	run := func(name string) (Outcome, int) {
		algo, err := ByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		space := NewSpaceWithLadder(k.Graph(), algo.Mode(), ladder)
		e := NewEvaluator(space, bench.NewRunner(42), k, 1e-4)
		out := algo.Search(e)
		return out, e.Evaluated()
	}
	for _, name := range append(append([]string{}, AlgorithmNames...), ExtensionNames...) {
		o1, n1 := run(name)
		o2, n2 := run(name)
		if n1 != n2 {
			t.Errorf("%s: evaluation count differs across runs: %d vs %d", name, n1, n2)
		}
		if !o1.Best.Equal(o2.Best) || o1.Evaluated != o2.Evaluated ||
			o1.BestResult.Speedup != o2.BestResult.Speedup {
			t.Errorf("%s: outcome differs across identical runs", name)
		}
	}
}

// TestParetoFrontDeterministic locks the Pareto-front contract: the
// front is reproducible across independent runs, contains the
// all-double reference point, is sorted by configuration key, and is
// pairwise non-dominated in (time, energy, error).
func TestParetoFrontDeterministic(t *testing.T) {
	k := kernels.NewHydro1D()
	ladder := fourRung(t)
	run := func() []ParetoPoint {
		algo, err := ByName("DD", 0)
		if err != nil {
			t.Fatal(err)
		}
		space := NewSpaceWithLadder(k.Graph(), algo.Mode(), ladder)
		e := NewEvaluator(space, bench.NewRunner(42), k, 1e-8)
		e.SetObjective(ObjectivePareto)
		algo.Search(e)
		return e.ParetoFront()
	}
	front := run()
	if len(front) == 0 {
		t.Fatal("pareto search produced an empty front")
	}
	if again := run(); !reflect.DeepEqual(front, again) {
		t.Errorf("front differs across identical runs:\n%v\n%v", front, again)
	}
	n := k.Graph().NumVars()
	refKey := bench.NewConfig(n).Key()
	foundRef := false
	for i, p := range front {
		if p.Config == refKey {
			foundRef = true
			if p.Error != 0 || p.Speedup != 1 {
				t.Errorf("reference point carries err=%g speedup=%g", p.Error, p.Speedup)
			}
		}
		if p.Time <= 0 || p.Energy <= 0 {
			t.Errorf("point %d has non-positive time/energy: %+v", i, p)
		}
		if i > 0 && front[i-1].Config >= p.Config {
			t.Errorf("front not sorted by config key: %q before %q", front[i-1].Config, p.Config)
		}
	}
	if !foundRef {
		t.Errorf("front omits the all-double reference point %q", refKey)
	}
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.Time <= p.Time && q.Energy <= p.Energy && q.Error <= p.Error &&
				(q.Time < p.Time || q.Energy < p.Energy || q.Error < p.Error) {
				t.Errorf("front point %d (%s) is dominated by point %d (%s)", i, p.Config, j, q.Config)
			}
		}
	}
}

// TestThresholdObjectiveRecordsNoFront guards the default: without
// SetObjective(ObjectivePareto) the evaluator records nothing and
// ParetoFront returns nil, so threshold campaigns carry no new state.
func TestThresholdObjectiveRecordsNoFront(t *testing.T) {
	k := kernels.NewHydro1D()
	algo, _ := ByName("DD", 0)
	space := NewSpace(k.Graph(), algo.Mode())
	e := NewEvaluator(space, bench.NewRunner(42), k, 1e-8)
	algo.Search(e)
	if f := e.ParetoFront(); f != nil {
		t.Errorf("threshold objective recorded a %d-point front", len(f))
	}
}

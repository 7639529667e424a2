package suite

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/mp"
	"repro/internal/perfmodel"
)

// f64bitsEqual compares floats as raw bit patterns: runs on pooled tapes
// promise byte-identity, which is stronger than == (it distinguishes
// -0 from +0) and, unlike reflect.DeepEqual, holds for the NaNs that
// aggressively demoted configurations legitimately produce (SRAD's
// all-single run diverges to NaN on both paths, identically).
func f64bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// resultsBitIdentical is deep Result equality at the bit level: output
// values, metered cost, per-variable profile, modelled time and energy,
// and the measured-timing protocol.
func resultsBitIdentical(a, b bench.Result) bool {
	if len(a.Output.Values) != len(b.Output.Values) {
		return false
	}
	for i := range a.Output.Values {
		if !f64bitsEqual(a.Output.Values[i], b.Output.Values[i]) {
			return false
		}
	}
	return a.Cost == b.Cost &&
		reflect.DeepEqual(a.Profile, b.Profile) && // uint64 fields only
		f64bitsEqual(a.ModelTime, b.ModelTime) &&
		f64bitsEqual(a.Energy, b.Energy) &&
		a.Measured.Runs == b.Measured.Runs &&
		f64bitsEqual(a.Measured.Mean, b.Measured.Mean) &&
		f64bitsEqual(a.Measured.Total, b.Measured.Total)
}

// equivalenceConfigs returns the representative precision vectors the
// pooled-tape/fresh-tape comparison runs per benchmark: the all-double
// reference, the all-single extreme, an alternating mix that exercises
// both the rounding and the F64 no-rounding paths in one run, a
// three-level ladder mix (f64/f32/bf16), and a four-level mix adding
// half precision and a custom format - so the byte-identity contract is
// locked over every rounding routine the ladder can reach.
func equivalenceConfigs(b bench.Benchmark) []bench.Config {
	n := b.Graph().NumVars()
	alt := bench.NewConfig(n)
	for i := 0; i < n; i += 2 {
		alt[i] = mp.F32
	}
	mix3 := bench.NewConfig(n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 1:
			mix3[i] = mp.F32
		case 2:
			mix3[i] = mp.BF16
		}
	}
	mix4 := bench.NewConfig(n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 1:
			mix4[i] = mp.F32
		case 2:
			mix4[i] = mp.F16
		case 3:
			mix4[i] = mp.MustCustom(8, 12)
		}
	}
	return []bench.Config{nil, bench.AllSingle(n), alt, mix3, mix4}
}

// freshTape is the reference executor: one single-use tape per
// execution, configured here - no tape pool, no tape recycling, no
// input-stream replay - with the Result assembled from the runner's
// machine model and the documented jitter stream (FNV-1a over
// "<seed>/<name>/<config key>"). sites is the tape size and jitter the
// stream's name component ("<bench>/ir" under IR semantics).
func freshTape(r *bench.Runner, b bench.Benchmark, cfg bench.Config, sites int, computeOnly bool, jitter string) bench.Result {
	t := mp.NewTape(sites)
	t.SetComputeOnly(computeOnly)
	for i, p := range cfg {
		t.SetPrec(mp.VarID(i), p)
	}
	out := b.Run(t, r.Seed)
	cost := t.Cost()
	modelTime := r.Machine.Time(cost)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", r.Seed, jitter, cfg.Key())
	return bench.Result{
		Output:    out,
		Cost:      cost,
		Profile:   t.Profile(),
		ModelTime: modelTime,
		Energy:    r.Machine.Energy(cost),
		Measured:  perfmodel.Measure(modelTime, r.Runs, rand.New(rand.NewSource(int64(h.Sum64())))),
	}
}

// TestCompiledInterpretedEquivalence locks the compiler's byte-identity
// contract over the whole suite: for all 17 ports, every evaluation
// entry point (Run, RunIR, RunManualSingle) and representative
// configuration returns a Result - output values, metered cost,
// per-variable profile, modelled time and energy, and the
// measured-timing protocol - bit-identical to the freshTape reference.
// (The name predates the interpreted evaluation path, which fresh
// single-use tapes replaced as the reference.) Each configuration runs
// twice so the second run exercises tape recycling and input-stream
// replay.
func TestCompiledInterpretedEquivalence(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			compiled := bench.NewRunner(42)
			compiled.Compiler = compile.New(nil) // private cache: counters below are test-local
			n := b.Graph().NumVars()
			sites := n
			if h, ok := b.(bench.HiddenVarser); ok {
				sites += h.HiddenVars()
			}

			check := func(what string, got, want bench.Result) {
				t.Helper()
				if !resultsBitIdentical(got, want) {
					t.Errorf("%s: pooled-tape result diverges from the fresh tape\npooled tape: %+v\nfresh tape:  %+v", what, got, want)
				}
			}
			for _, cfg := range equivalenceConfigs(b) {
				label := "reference"
				if cfg != nil {
					label = cfg.Key()
				}
				want := freshTape(compiled, b, cfg, sites, false, b.Name())
				check("Run/"+label, compiled.Run(b, cfg), want)
				check("Run/"+label+"/again", compiled.Run(b, cfg), want)
				wantIR := freshTape(compiled, b, cfg, sites, true, b.Name()+"/ir")
				check("RunIR/"+label, compiled.RunIR(b, cfg), wantIR)
			}
			check("RunManualSingle", compiled.RunManualSingle(b), freshTape(compiled, b, bench.AllSingle(sites), sites, false, b.Name()))

			// The comparisons above must have gone through the compiler's
			// tape pool at all - a runner bypassing it would pass trivially.
			s := compiled.Compiler.Stats()
			if s.Kernels == 0 || s.Misses == 0 {
				t.Errorf("runner never ran on a pooled tape: %+v", s)
			}
			if s.Hits == 0 {
				t.Errorf("repeated configurations never ran on a recycled tape: %+v", s)
			}
		})
	}
}

// countingBench counts a benchmark's executions. It forwards the
// optional interfaces the runner consults, so tape pools, input-stream
// replay and results are those of the bare benchmark.
type countingBench struct {
	bench.Benchmark
	runs int
}

func (c *countingBench) Run(t *mp.Tape, seed int64) bench.Output {
	c.runs++
	return c.Benchmark.Run(t, seed)
}

func (c *countingBench) HiddenVars() int {
	if h, ok := c.Benchmark.(bench.HiddenVarser); ok {
		return h.HiddenVars()
	}
	return 0
}

func (c *countingBench) PureInit() bool {
	p, ok := c.Benchmark.(bench.PureIniter)
	return ok && p.PureInit()
}

// TestExecutionIndexExact checks, for all 17 ports, that the run cache's
// execution index shares executions exactly. Configurations are drawn
// with a fixed seed on three ladders (f64,f32; f64,f32,bf16; one custom
// format), each followed by a variant that changes only sites the drawn
// configuration's run did not read, plus the all-double pair nil and
// NewConfig(n), which differ only in their keys. Through Run, RunIR and
// RunManualSingle, a runner with a fresh cache must return Results
// bit-identical - outputs, cost, profile, model time, energy and the
// jittered measurement; DeepEqual at the bit level, so the NaNs of
// diverging configurations compare equal - to an uncached runner's,
// while executing exactly once per distinct (semantics, read set,
// configuration restricted to the read set). The read sets come from
// fresh tapes, independently of the index.
func TestExecutionIndexExact(t *testing.T) {
	ladders := [][]mp.Prec{
		{mp.F64, mp.F32},
		{mp.F64, mp.F32, mp.BF16},
		{mp.F64, mp.MustCustom(8, 12)},
	}
	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			n := b.Graph().NumVars()
			sites := n
			if h, ok := b.(bench.HiddenVarser); ok {
				sites += h.HiddenVars()
			}
			counted := &countingBench{Benchmark: b}
			cached := bench.NewRunner(42)
			cached.Cache = bench.NewCache(nil)
			cached.Compiler = compile.New(nil)
			plain := bench.NewRunner(42)
			plain.Compiler = compile.New(nil)

			// readsOf runs cfg once on a fresh tape for its read set;
			// restricted spells (semantics, read set, cfg restricted to
			// it), and execs collects the distinct spellings the calls
			// reach.
			readSets := map[string][]bool{}
			readsOf := func(ir bool, cfg bench.Config) []bool {
				id := fmt.Sprintf("%t/%s", ir, cfg.Key())
				if reads, ok := readSets[id]; ok {
					return reads
				}
				tape := mp.NewTape(sites)
				tape.SetComputeOnly(ir)
				for i, p := range cfg {
					tape.SetPrec(mp.VarID(i), p)
				}
				b.Run(tape, cached.Seed)
				readSets[id] = tape.ReadSet()
				return readSets[id]
			}
			restricted := func(ir bool, cfg bench.Config) string {
				key := fmt.Sprintf("%t/", ir)
				for i, read := range readsOf(ir, cfg) {
					switch {
					case !read:
						key += "-"
					case i < len(cfg):
						key += cfg[i : i+1].Key()
					default:
						key += bench.Config{mp.F64}.Key()
					}
				}
				return key
			}
			execs := map[string]bool{}
			check := func(what string, got, want bench.Result) {
				t.Helper()
				if !resultsBitIdentical(got, want) {
					t.Errorf("%s: cached result diverges from the uncached runner\ncached:   %+v\nuncached: %+v", what, got, want)
				}
			}

			rng := rand.New(rand.NewSource(7))
			cfgs := []bench.Config{nil, bench.NewConfig(n)}
			for _, ladder := range ladders {
				for draw := 0; draw < 2; draw++ {
					cfg := bench.NewConfig(n)
					for i := range cfg {
						cfg[i] = ladder[rng.Intn(len(ladder))]
					}
					cfgs = append(cfgs, cfg)
					variant := cfg.Clone()
					for i, read := range readsOf(false, cfg)[:n] {
						if !read {
							rung := slices.Index(ladder, cfg[i])
							variant[i] = ladder[(rung+1)%len(ladder)]
						}
					}
					if variant.Key() != cfg.Key() {
						cfgs = append(cfgs, variant)
					}
				}
			}
			for _, cfg := range cfgs {
				label := "reference"
				if cfg != nil {
					label = cfg.Key()
				}
				execs[restricted(false, cfg)] = true
				check("Run/"+label, cached.Run(counted, cfg), plain.Run(b, cfg))
				execs[restricted(true, cfg)] = true
				check("RunIR/"+label, cached.RunIR(counted, cfg), plain.RunIR(b, cfg))
			}
			execs[restricted(false, bench.AllSingle(sites))] = true
			check("RunManualSingle", cached.RunManualSingle(counted), plain.RunManualSingle(b))

			if counted.runs != len(execs) {
				t.Errorf("cached runner executed %d times, want %d (one per distinct read-site restriction)", counted.runs, len(execs))
			}
			if cached.Cache.SharedExecutions() == 0 {
				t.Error("the execution index never shared an execution, not even nil with the all-double configuration")
			}
		})
	}
}

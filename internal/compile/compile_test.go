package compile

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/mp"
	"repro/internal/runcache"
)

// toyProgram is a minimal Program: it draws a workload from the tape's
// seeded RNG, fills an array, and folds it through a scalar accumulator,
// touching every code path the compiler specializes (bulk fills, array
// reads, scalar assigns, flop charges).
type toyProgram struct {
	name  string
	sites int
	pure  bool
}

func (p toyProgram) Name() string   { return p.name }
func (p toyProgram) NumSites() int  { return p.sites }
func (p toyProgram) PureInit() bool { return p.pure }

func (p toyProgram) Exec(t *mp.Tape, seed int64) []float64 {
	rng := t.Rand(seed)
	a := t.NewArray(0, 64)
	a.SetEach(func(i int) float64 { return rng.Float64() })
	sum := 0.0
	for i := 0; i < a.Len(); i++ {
		sum = t.Assign(1, sum+a.Get(i), 1, 0)
	}
	return []float64{sum}
}

// freshTape is the reference executor: one single-use tape per run with
// the configuration applied, and no kernel, tape recycling, or
// input-stream replay.
func freshTape(p Program, cfg []mp.Prec, sem runcache.Semantics, seed int64) ([]float64, mp.Cost, []mp.VarProfile, []bool) {
	t := mp.NewTape(p.NumSites())
	if sem == runcache.IR {
		t.SetComputeOnly(true)
	}
	for i, pr := range cfg {
		t.SetPrec(mp.VarID(i), pr)
	}
	vals := p.Exec(t, seed)
	return vals, t.Cost(), t.Profile(), t.ReadSet()
}

func cfgKey(cfg []mp.Prec) string {
	b := make([]byte, len(cfg))
	for i, p := range cfg {
		b[i] = '0' + byte(p)
	}
	return string(b)
}

func TestCompileCacheHitsAndMisses(t *testing.T) {
	c := New(nil)
	prog := toyProgram{name: "toy", sites: 2, pure: true}
	key := Key{Bench: "toy", Semantics: runcache.Source, Model: 7, Config: ""}

	k1 := c.Compile(key, prog, nil)
	k2 := c.Compile(key, prog, nil)
	if k1 != k2 {
		t.Error("same key compiled two distinct kernels")
	}
	if s := c.Stats(); s.Kernels != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("after one reuse: %+v", s)
	}

	// Any key component change is a distinct specialization.
	variants := []Key{
		{Bench: "toy", Semantics: runcache.Source, Model: 7, Config: "1"},
		{Bench: "toy", Semantics: runcache.IR, Model: 7, Config: ""},
		{Bench: "toy", Semantics: runcache.Source, Model: 8, Config: ""},
		{Bench: "toy2", Semantics: runcache.Source, Model: 7, Config: ""},
	}
	for _, v := range variants {
		if c.Compile(v, prog, nil) == k1 {
			t.Errorf("key %+v shared the kernel of %+v", v, key)
		}
	}
	if s := c.Stats(); s.Kernels != 5 || s.Misses != 5 || s.Hits != 1 {
		t.Errorf("after variants: %+v", s)
	}
	if k1.NumSites() != prog.NumSites() {
		t.Errorf("NumSites = %d, want %d", k1.NumSites(), prog.NumSites())
	}
}

// TestKernelMatchesFreshTape locks the byte-identity contract at the
// compiler's own level: for every configuration and both semantics
// tiers, a kernel run - first (recording), repeated (replaying, reused
// tape) - returns exactly the fresh-tape reference's values, cost,
// profile, and read set.
func TestKernelMatchesFreshTape(t *testing.T) {
	prog := toyProgram{name: "toy", sites: 2, pure: true}
	configs := [][]mp.Prec{
		nil,
		{mp.F32, mp.F32},
		{mp.F32, mp.F64},
		{mp.F64, mp.F32},
	}
	for _, sem := range []runcache.Semantics{runcache.Source, runcache.IR} {
		c := New(nil)
		for _, cfg := range configs {
			wantVals, wantCost, wantProf, wantReads := freshTape(prog, cfg, sem, 42)
			k := c.Compile(Key{Bench: "toy", Semantics: sem, Model: 1, Config: cfgKey(cfg)}, prog, cfg)
			for run := 0; run < 3; run++ {
				vals, cost, prof, reads := k.Run(prog, 42)
				if !reflect.DeepEqual(vals, wantVals) {
					t.Errorf("sem=%v cfg=%q run=%d: values %v, want %v", sem, cfgKey(cfg), run, vals, wantVals)
				}
				if cost != wantCost {
					t.Errorf("sem=%v cfg=%q run=%d: cost %+v, want %+v", sem, cfgKey(cfg), run, cost, wantCost)
				}
				if !reflect.DeepEqual(prof, wantProf) {
					t.Errorf("sem=%v cfg=%q run=%d: profile %v, want %v", sem, cfgKey(cfg), run, prof, wantProf)
				}
				if !reflect.DeepEqual(reads, wantReads) {
					t.Errorf("sem=%v cfg=%q run=%d: read set %v, want %v", sem, cfgKey(cfg), run, reads, wantReads)
				}
			}
		}
	}
}

// TestKernelsKeyedBySiteCount checks that programs sharing a name but
// not a shape never share a kernel: each gets a tape sized for its own
// sites and returns its own fresh-tape result, while a repeat of either
// still hits its kernel.
func TestKernelsKeyedBySiteCount(t *testing.T) {
	c := New(nil)
	cfg := []mp.Prec{mp.F32, mp.F64}
	key := Key{Bench: "shared", Semantics: runcache.Source, Model: 1, Config: cfgKey(cfg)}
	small := toyProgram{name: "shared", sites: 2}
	large := toyProgram{name: "shared", sites: 5}

	ks := c.Compile(key, small, cfg)
	kl := c.Compile(key, large, cfg)
	if ks == kl {
		t.Fatal("programs with different site counts shared one kernel")
	}
	if ks.NumSites() != 2 || kl.NumSites() != 5 {
		t.Fatalf("kernel sites = %d and %d, want 2 and 5", ks.NumSites(), kl.NumSites())
	}
	if c.Compile(key, small, cfg) != ks || c.Compile(key, large, cfg) != kl {
		t.Error("a repeated (key, site count) compiled a fresh kernel")
	}
	if s := c.Stats(); s.Kernels != 2 || s.Misses != 2 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 2 kernels, 2 misses, 2 hits", s)
	}
	for _, tc := range []struct {
		prog toyProgram
		k    *Kernel
	}{{small, ks}, {large, kl}} {
		wantVals, wantCost, wantProf, _ := freshTape(tc.prog, cfg, runcache.Source, 3)
		vals, cost, prof, _ := tc.k.Run(tc.prog, 3)
		if !reflect.DeepEqual(vals, wantVals) || cost != wantCost || !reflect.DeepEqual(prof, wantProf) {
			t.Errorf("%d sites: kernel run diverges from the fresh tape", tc.prog.sites)
		}
		if len(prof) != tc.prog.sites {
			t.Errorf("%d sites: profile has %d entries", tc.prog.sites, len(prof))
		}
	}
}

// TestStreamSharing checks the input-stream cache: streams key on
// (bench, seed) only - shared across configurations and semantics -
// and exist at all only for seed-pure programs.
func TestStreamSharing(t *testing.T) {
	c := New(nil)
	prog := toyProgram{name: "toy", sites: 2, pure: true}
	src := c.Compile(Key{Bench: "toy", Semantics: runcache.Source, Model: 1}, prog, nil)
	ir := c.Compile(Key{Bench: "toy", Semantics: runcache.IR, Model: 1}, prog, nil)

	src.Run(prog, 1) // records seed 1
	ir.Run(prog, 1)  // replays it: streams cross semantics
	src.Run(prog, 2) // new seed, new recording
	if s := c.Stats(); s.Streams != 2 || s.StreamRecords != 2 || s.StreamReplays != 1 {
		t.Errorf("pure program stream stats: %+v", s)
	}

	impure := toyProgram{name: "impure", sites: 2, pure: false}
	k := c.Compile(Key{Bench: "impure", Semantics: runcache.Source, Model: 1}, impure, nil)
	k.Run(impure, 1)
	k.Run(impure, 1)
	if s := c.Stats(); s.Streams != 2 || s.StreamRecords != 2 || s.StreamReplays != 1 {
		t.Errorf("impure program touched the stream cache: %+v", s)
	}
}

// TestKernelConcurrentRuns hammers one kernel from many goroutines.
// Under -race this locks the pool-of-frozen-tapes concurrency claim;
// every run must still return the identical result.
func TestKernelConcurrentRuns(t *testing.T) {
	c := New(nil)
	prog := toyProgram{name: "toy", sites: 2, pure: true}
	cfg := []mp.Prec{mp.F32, mp.F64}
	k := c.Compile(Key{Bench: "toy", Semantics: runcache.Source, Model: 1, Config: cfgKey(cfg)}, prog, cfg)
	wantVals, wantCost, wantProf, _ := freshTape(prog, cfg, runcache.Source, 7)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				vals, cost, prof, _ := k.Run(prog, 7)
				if !reflect.DeepEqual(vals, wantVals) || cost != wantCost || !reflect.DeepEqual(prof, wantProf) {
					errs <- "concurrent run diverged from the fresh tape"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestNilCompilerStats keeps the nil-receiver convenience used by
// diagnostics endpoints.
func TestNilCompilerStats(t *testing.T) {
	var c *Compiler
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil compiler stats = %+v", s)
	}
}

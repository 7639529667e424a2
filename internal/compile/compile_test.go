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
// touching every code path a recycled tape must reproduce (bulk fills,
// array reads, scalar assigns, flop charges).
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
// the configuration applied, and no tape recycling or input-stream
// replay.
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

// TestCompileCacheHitsAndMisses checks the compiler's counters: every
// Run is a hit (recycled tape) or a miss (fresh tape), the first run of
// a program is a miss, and every configuration and semantics of one
// program shares one pool, while another program gets its own. Only
// totals are asserted: a sync.Pool may drop an idle tape at any garbage
// collection (and, under -race, one Put in four), so the split between
// hits and misses is not the compiler's to promise.
func TestCompileCacheHitsAndMisses(t *testing.T) {
	c := New(nil)
	prog := toyProgram{name: "toy", sites: 2, pure: true}

	c.Run(prog, nil, runcache.Source, 1)
	if s := c.Stats(); s.Kernels != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Errorf("after the first run: %+v, want 1 pool and 1 miss", s)
	}
	runs := uint64(1)
	for _, sem := range []runcache.Semantics{runcache.Source, runcache.IR} {
		for _, cfg := range [][]mp.Prec{nil, {mp.F32}, {mp.F32, mp.BF16}} {
			c.Run(prog, cfg, sem, 1)
			runs++
		}
	}
	if s := c.Stats(); s.Kernels != 1 || s.Hits+s.Misses != runs {
		t.Errorf("after %d runs of one program: %+v, want 1 pool and %d hits and misses", runs, s, runs)
	}

	c.Run(toyProgram{name: "toy2", sites: 2, pure: true}, nil, runcache.Source, 1)
	runs++
	if s := c.Stats(); s.Kernels != 2 || s.Hits+s.Misses != runs {
		t.Errorf("after a second program: %+v, want 2 pools and %d hits and misses", s, runs)
	}
}

// TestKernelMatchesFreshTape locks the byte-identity contract at the
// compiler's own level: every configuration under both semantics tiers
// runs back to back on one compiler for several rounds - the first run
// of a seed records its input stream, later runs replay it on tapes
// recycled from other configurations and semantics - and every run
// returns exactly the fresh-tape reference's values, cost, profile, and
// read set.
func TestKernelMatchesFreshTape(t *testing.T) {
	prog := toyProgram{name: "toy", sites: 3, pure: true}
	configs := [][]mp.Prec{
		nil,
		{mp.F32, mp.F32},
		{mp.F32, mp.F64},
		{mp.F64, mp.F32, mp.F32},
		{mp.BF16, mp.F16},
		{mp.F64, mp.MustCustom(5, 7)},
	}
	c := New(nil)
	for round := 0; round < 3; round++ {
		for _, sem := range []runcache.Semantics{runcache.Source, runcache.IR} {
			for _, cfg := range configs {
				wantVals, wantCost, wantProf, wantReads := freshTape(prog, cfg, sem, 42)
				vals, cost, prof, reads := c.Run(prog, cfg, sem, 42)
				if !reflect.DeepEqual(vals, wantVals) {
					t.Errorf("round=%d sem=%v cfg=%v: values %v, want %v", round, sem, cfg, vals, wantVals)
				}
				if cost != wantCost {
					t.Errorf("round=%d sem=%v cfg=%v: cost %+v, want %+v", round, sem, cfg, cost, wantCost)
				}
				if !reflect.DeepEqual(prof, wantProf) {
					t.Errorf("round=%d sem=%v cfg=%v: profile %v, want %v", round, sem, cfg, prof, wantProf)
				}
				if !reflect.DeepEqual(reads, wantReads) {
					t.Errorf("round=%d sem=%v cfg=%v: read set %v, want %v", round, sem, cfg, reads, wantReads)
				}
			}
		}
	}
	if s := c.Stats(); s.StreamRecords != 1 || s.StreamReplays == 0 {
		t.Errorf("stream stats = %+v, want one recording replayed by every later run", s)
	}
}

// TestKernelsKeyedBySiteCount checks that programs sharing a name but
// not a shape never share a tape: each gets a pool of tapes sized for
// its own sites and returns its own fresh-tape result, run after run.
func TestKernelsKeyedBySiteCount(t *testing.T) {
	c := New(nil)
	cfg := []mp.Prec{mp.F32, mp.F64}
	small := toyProgram{name: "shared", sites: 2}
	large := toyProgram{name: "shared", sites: 5}

	for round := 0; round < 3; round++ {
		for _, prog := range []toyProgram{small, large} {
			wantVals, wantCost, wantProf, wantReads := freshTape(prog, cfg, runcache.Source, 3)
			vals, cost, prof, reads := c.Run(prog, cfg, runcache.Source, 3)
			if !reflect.DeepEqual(vals, wantVals) || cost != wantCost || !reflect.DeepEqual(prof, wantProf) || !reflect.DeepEqual(reads, wantReads) {
				t.Errorf("round %d, %d sites: run diverges from the fresh tape", round, prog.sites)
			}
			if len(prof) != prog.sites || len(reads) != prog.sites {
				t.Errorf("round %d, %d sites: profile has %d entries, read set %d", round, prog.sites, len(prof), len(reads))
			}
		}
	}
	if s := c.Stats(); s.Kernels != 2 || s.Hits+s.Misses != 6 {
		t.Errorf("stats = %+v, want 2 pools and 6 hits and misses", s)
	}
}

// TestStreamSharing checks the input-stream cache: streams key on
// (bench, seed) only - shared across configurations and semantics -
// and exist at all only for seed-pure programs.
func TestStreamSharing(t *testing.T) {
	c := New(nil)
	prog := toyProgram{name: "toy", sites: 2, pure: true}

	c.Run(prog, nil, runcache.Source, 1)                       // records seed 1
	c.Run(prog, []mp.Prec{mp.F32}, runcache.IR, 1)             // replays it: streams cross configurations and semantics
	c.Run(prog, []mp.Prec{mp.F32, mp.F32}, runcache.Source, 2) // new seed, new recording
	if s := c.Stats(); s.Streams != 2 || s.StreamRecords != 2 || s.StreamReplays != 1 {
		t.Errorf("pure program stream stats: %+v", s)
	}

	impure := toyProgram{name: "impure", sites: 2, pure: false}
	c.Run(impure, nil, runcache.Source, 1)
	c.Run(impure, nil, runcache.Source, 1)
	if s := c.Stats(); s.Streams != 2 || s.StreamRecords != 2 || s.StreamReplays != 1 {
		t.Errorf("impure program touched the stream cache: %+v", s)
	}
}

// TestKernelConcurrentRuns hammers one pool from many goroutines, each
// cycling through configurations and semantics, so tapes move between
// configurations while other runs are in flight. Under -race this locks
// the pool's concurrency claim; every run must still return its
// configuration's fresh-tape result.
func TestKernelConcurrentRuns(t *testing.T) {
	c := New(nil)
	prog := toyProgram{name: "toy", sites: 2, pure: true}
	type run struct {
		cfg []mp.Prec
		sem runcache.Semantics
	}
	runs := []run{
		{nil, runcache.Source},
		{[]mp.Prec{mp.F32, mp.F64}, runcache.Source},
		{[]mp.Prec{mp.F32, mp.F64}, runcache.IR},
		{[]mp.Prec{mp.BF16, mp.F32}, runcache.Source},
	}
	type result struct {
		vals []float64
		cost mp.Cost
		prof []mp.VarProfile
	}
	want := make([]result, len(runs))
	for i, r := range runs {
		want[i].vals, want[i].cost, want[i].prof, _ = freshTape(prog, r.cfg, r.sem, 7)
	}

	const goroutines, perGoroutine = 8, 12
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				k := (g + i) % len(runs)
				vals, cost, prof, _ := c.Run(prog, runs[k].cfg, runs[k].sem, 7)
				if !reflect.DeepEqual(vals, want[k].vals) || cost != want[k].cost || !reflect.DeepEqual(prof, want[k].prof) {
					errs <- "concurrent run diverged from the fresh tape"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := c.Stats(); s.Kernels != 1 || s.Hits+s.Misses != goroutines*perGoroutine {
		t.Errorf("stats = %+v, want 1 pool and %d hits and misses", s, goroutines*perGoroutine)
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

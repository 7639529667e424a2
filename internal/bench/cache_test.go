package bench

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mp"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// cacheBench is a minimal deterministic benchmark whose executions the
// tests can count.
type cacheBench struct {
	graph  *typedep.Graph
	hidden int
	runs   *int
}

func newCacheBench(vars, hidden int, runs *int) *cacheBench {
	g := typedep.NewGraph()
	for i := 0; i < vars; i++ {
		g.Add(fmt.Sprintf("v%d", i), "unit", typedep.Scalar)
	}
	return &cacheBench{graph: g, hidden: hidden, runs: runs}
}

func (b *cacheBench) Name() string          { return "cache-bench" }
func (b *cacheBench) Kind() Kind            { return Kernel }
func (b *cacheBench) Description() string   { return "test benchmark" }
func (b *cacheBench) Metric() verify.Metric { return verify.MAE }
func (b *cacheBench) Graph() *typedep.Graph { return b.graph }
func (b *cacheBench) HiddenVars() int       { return b.hidden }

func (b *cacheBench) Run(t *mp.Tape, seed int64) Output {
	if b.runs != nil {
		*b.runs++
	}
	var srcs []mp.VarID
	if t.NumVars() > 1 {
		srcs = []mp.VarID{1}
	}
	a := t.NewArray(0, 8)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, t.Assign(0, float64(seed)+float64(i)*1.25, 1, srcs...))
	}
	return Output{Values: a.Snapshot()}
}

// TestJitterSeedMatchesReference locks the allocation-free jitterSeed to
// the byte stream the original fmt.Fprintf+fnv implementation hashed:
// existing measured results must not shift.
func TestJitterSeedMatchesReference(t *testing.T) {
	ref := func(seed int64, name string, cfg Config) int64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s/%s", seed, name, cfg.Key())
		return int64(h.Sum64())
	}
	cases := []struct {
		seed int64
		name string
		cfg  Config
	}{
		{42, "hydro-1d", nil},
		{42, "hydro-1d", Config{}},
		{42, "hydro-1d", Config{mp.F64, mp.F32}},
		{-17, "K-means/ir", Config{mp.F32, mp.F32, mp.F16}},
		{0, "", nil},
		{9223372036854775807, "eos", AllSingle(30)},
		{-9223372036854775808, "x", Config{mp.F64}},
	}
	for _, c := range cases {
		r := &Runner{Seed: c.seed}
		if got, want := r.jitterSeed(c.name, c.cfg), ref(c.seed, c.name, c.cfg); got != want {
			t.Errorf("jitterSeed(%d, %q, %q) = %d, want %d", c.seed, c.name, c.cfg.Key(), got, want)
		}
	}
}

// TestAppendKeyMatchesKey checks AppendKey produces exactly Key's bytes,
// reusing a buffer across calls.
func TestAppendKeyMatchesKey(t *testing.T) {
	var buf []byte
	for _, cfg := range []Config{nil, {}, {mp.F64}, {mp.F32, mp.F64, mp.F16}, AllSingle(40)} {
		buf = cfg.AppendKey(buf[:0])
		if string(buf) != cfg.Key() {
			t.Errorf("AppendKey = %q, Key = %q", buf, cfg.Key())
		}
	}
}

// TestManualSingleProfile checks the manual conversion populates
// Result.Profile like Run and RunIR do, covering hidden sites.
func TestManualSingleProfile(t *testing.T) {
	b := newCacheBench(2, 1, nil)
	res := NewRunner(42).RunManualSingle(b)
	if len(res.Profile) != 3 {
		t.Fatalf("Profile has %d entries, want vars+hidden = 3", len(res.Profile))
	}
	var bytes uint64
	for _, p := range res.Profile {
		bytes += p.Bytes
	}
	if bytes == 0 {
		t.Fatal("Profile carries no attributed traffic")
	}
}

// TestCacheTransparent checks the core determinism contract: with a shared
// cache installed, every Run/RunIR/RunManualSingle result is deeply equal
// to the uncached runner's, while the benchmark executes a fraction of the
// calls: once per distinct key at most, and once per distinct
// restriction to the sites the run reads.
func TestCacheTransparent(t *testing.T) {
	var coldRuns, cachedRuns int
	cold := newCacheBench(2, 1, &coldRuns)
	cached := newCacheBench(2, 1, &cachedRuns)

	cfgs := []Config{nil, {mp.F32, mp.F64}, {mp.F32, mp.F32}, {mp.F64, mp.F64}}

	run := func(b Benchmark, r *Runner) []Result {
		var out []Result
		for round := 0; round < 3; round++ {
			for _, cfg := range cfgs {
				out = append(out, r.Run(b, cfg))
				out = append(out, r.RunIR(b, cfg))
			}
			out = append(out, r.RunManualSingle(b))
		}
		return out
	}

	coldRunner := NewRunner(42)
	cachedRunner := NewRunner(42)
	cachedRunner.Cache = NewCache(nil)

	coldRes := run(cold, coldRunner)
	cachedRes := run(cached, cachedRunner)

	if !reflect.DeepEqual(coldRes, cachedRes) {
		t.Fatal("cached results diverge from uncached results")
	}
	// 3 rounds x (4 source + 4 IR + 1 manual) calls; the run cache
	// misses once per distinct key.
	if wantCold := 27; coldRuns != wantCold {
		t.Fatalf("uncached benchmark executed %d times, want %d", coldRuns, wantCold)
	}
	if got, want := cachedRunner.Cache.Stats().Misses, uint64(9); got != want {
		t.Fatalf("run cache missed %d times, want %d (one per distinct key)", got, want)
	}
	// cacheBench never reads its hidden site, so {F64,F64} shares nil's
	// execution and the manual conversion shares {F32,F32}'s: three
	// executions per semantics tier.
	if wantCached := 6; cachedRuns != wantCached {
		t.Fatalf("cached benchmark executed %d times, want %d (one per distinct read-site restriction)", cachedRuns, wantCached)
	}
	if got, want := cachedRunner.Cache.SharedExecutions(), uint64(3); got != want {
		t.Fatalf("execution index shared %d executions, want %d", got, want)
	}
}

// TestCacheResultIsolation checks that mutating one returned Result cannot
// corrupt what later calls observe.
func TestCacheResultIsolation(t *testing.T) {
	b := newCacheBench(1, 0, nil)
	r := NewRunner(42)
	r.Cache = NewCache(nil)
	first := r.Run(b, Config{mp.F32})
	first.Output.Values[0] = -1e9
	first.Profile[0].Bytes = 0
	second := r.Run(b, Config{mp.F32})
	if second.Output.Values[0] == -1e9 {
		t.Fatal("cached Output corrupted through a returned Result")
	}
	if second.Profile[0].Bytes == 0 {
		t.Fatal("cached Profile corrupted through a returned Result")
	}
}

// TestCacheKeysSeparateRunners checks the fingerprint components that keep
// one shared cache safe across heterogeneous runners: seed, machine model,
// and repetition count must all separate entries.
func TestCacheKeysSeparateRunners(t *testing.T) {
	var runs int
	b := newCacheBench(1, 0, &runs)
	cache := NewCache(nil)
	cfg := Config{mp.F32}

	base := NewRunner(42)
	base.Cache = cache
	baseRes := base.Run(b, cfg)

	otherSeed := NewRunner(43)
	otherSeed.Cache = cache
	if res := otherSeed.Run(b, cfg); reflect.DeepEqual(res, baseRes) {
		t.Fatal("different seeds served the same cached result")
	}

	otherModel := NewRunner(42)
	otherModel.Cache = cache
	otherModel.Machine.Rate32 *= 2
	if res := otherModel.Run(b, cfg); res.Measured == baseRes.Measured {
		t.Fatal("different machine models served the same cached measurement")
	}

	otherRuns := NewRunner(42)
	otherRuns.Cache = cache
	otherRuns.Runs = base.Runs + 5
	if res := otherRuns.Run(b, cfg); res.Measured.Runs == baseRes.Measured.Runs {
		t.Fatal("different protocols served the same cached measurement")
	}

	if runs != 4 {
		t.Fatalf("benchmark executed %d times, want 4 distinct entries", runs)
	}

	// And the matching runner is served from the cache.
	same := NewRunner(42)
	same.Cache = cache
	if res := same.Run(b, cfg); !reflect.DeepEqual(res, baseRes) {
		t.Fatal("identical runner not served the shared entry")
	}
	if runs != 4 {
		t.Fatalf("identical runner re-executed (runs = %d)", runs)
	}
}

// branchBench's read set depends on the configuration and on the seed:
// it always reads site 0, reads site 2 only when site 0 is narrow, and
// reads site 1 only under odd seeds.
type branchBench struct {
	graph *typedep.Graph
	runs  *int
}

func newBranchBench(runs *int) *branchBench {
	g := typedep.NewGraph()
	for i := 0; i < 3; i++ {
		g.Add(fmt.Sprintf("v%d", i), "unit", typedep.Scalar)
	}
	return &branchBench{graph: g, runs: runs}
}

func (b *branchBench) Name() string          { return "branch-bench" }
func (b *branchBench) Kind() Kind            { return Kernel }
func (b *branchBench) Description() string   { return "test benchmark" }
func (b *branchBench) Metric() verify.Metric { return verify.MAE }
func (b *branchBench) Graph() *typedep.Graph { return b.graph }

func (b *branchBench) Run(t *mp.Tape, seed int64) Output {
	*b.runs++
	x := t.Value(0, 1/3.0+float64(seed))
	if t.Prec(0) != mp.F64 {
		x = t.Assign(2, x/7, 1, 0)
	}
	if seed%2 != 0 {
		x = t.Assign(1, x*x, 1)
	}
	return Output{Values: []float64{x}}
}

// TestCacheSeparatesReadSets checks the execution index against a
// benchmark whose read set varies with the configuration and the seed:
// every result equals the uncached runner's, and executions are shared
// only within one read set - {0} or {0,2} at the even seed, {0,1} or
// {0,1,2} at the odd one - never across read sets or seeds.
func TestCacheSeparatesReadSets(t *testing.T) {
	f64, f32, bf16 := mp.F64, mp.F32, mp.BF16
	cfgs := []Config{
		{f64, f64, f64}, // reads {0} (+1 at odd seeds)
		{f64, f32, bf16},
		{f64, bf16, f32},
		{f32, f64, f64}, // reads {0,2} (+1 at odd seeds)
		{f32, f64, f32},
		{f32, f32, f64},
		{f32, bf16, f32},
		{bf16, f64, f64},
	}
	cache := NewCache(nil)
	var cachedRuns, plainRuns int
	cached, plain := newBranchBench(&cachedRuns), newBranchBench(&plainRuns)
	for _, tc := range []struct {
		seed     int64
		restrict []string // cfgs restricted to their read sets
	}{
		{42, []string{"0--", "0--", "0--", "1-0", "1-1", "1-0", "1-1", "3-0"}},
		{43, []string{"00-", "01-", "03-", "100", "101", "110", "131", "300"}},
	} {
		before := cachedRuns
		r := NewRunner(tc.seed)
		r.Cache = cache
		for _, cfg := range cfgs {
			if got, want := r.Run(cached, cfg), NewRunner(tc.seed).Run(plain, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, config %s: cached %+v, uncached %+v", tc.seed, cfg.Key(), got, want)
			}
		}
		distinct := map[string]bool{}
		for _, k := range tc.restrict {
			distinct[k] = true
		}
		if got := cachedRuns - before; got != len(distinct) {
			t.Errorf("seed %d: %d executions, want %d (one per distinct restriction)", tc.seed, got, len(distinct))
		}
	}
	if plainRuns != 2*len(cfgs) {
		t.Fatalf("uncached runner executed %d times, want %d", plainRuns, 2*len(cfgs))
	}
}

// TestCacheConcurrentSharing runs configurations that share read-site
// restrictions from many goroutines at once through one cache. Under
// -race this locks the index's synchronization; every result must still
// equal the uncached runner's, whichever goroutine executed or recorded
// first.
func TestCacheConcurrentSharing(t *testing.T) {
	b := newCacheBench(2, 1, nil)
	cfgs := []Config{nil, {mp.F64, mp.F64}, {mp.F32, mp.F64}, {mp.F64, mp.F32}, {mp.F32, mp.F32}}
	plain := NewRunner(42)
	var want []Result
	for _, cfg := range cfgs {
		want = append(want, plain.Run(b, cfg), plain.RunIR(b, cfg))
	}
	want = append(want, plain.RunManualSingle(b))

	r := NewRunner(42)
	r.Cache = NewCache(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range want {
				j := (i + g) % len(want) // stagger so goroutines race on different keys
				var got Result
				switch {
				case j == len(want)-1:
					got = r.RunManualSingle(b)
				case j%2 == 0:
					got = r.Run(b, cfgs[j/2])
				default:
					got = r.RunIR(b, cfgs[j/2])
				}
				if !reflect.DeepEqual(got, want[j]) {
					t.Errorf("goroutine %d, call %d: cached %+v, uncached %+v", g, j, got, want[j])
				}
			}
		}(g)
	}
	wg.Wait()
	if s := r.Cache.Stats(); s.Misses != uint64(len(want)) || r.Cache.SharedExecutions() > s.Misses {
		t.Errorf("stats %+v, shared %d: want %d misses and no more shared executions than misses", s, r.Cache.SharedExecutions(), len(want))
	}
}

func BenchmarkConfigKey(b *testing.B) {
	cfg := AllSingle(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.Key()
	}
}

func BenchmarkConfigAppendKey(b *testing.B) {
	cfg := AllSingle(64)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = cfg.AppendKey(buf[:0])
	}
}

func BenchmarkJitterSeed(b *testing.B) {
	r := NewRunner(42)
	cfg := AllSingle(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.jitterSeed("hydro-1d", cfg)
	}
}

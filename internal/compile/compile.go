// Package compile lowers benchmark executions into precision-specialized
// compiled kernels and caches them content-addressed. It is the only way
// internal/bench executes a configuration.
//
// A Kernel specializes a frozen mp.Tape per configuration once - the
// precision vector and the demotion semantics are applied and locked,
// and every array caches its rounding precision (F64 stores skip
// rounding entirely in the bulk accessors) - and then reuses that tape
// across every run of the same configuration, recycling its buffers run
// to run. For benchmarks whose input generation is a pure function of
// the workload seed (bench.PureIniter), the kernel also records the
// first run's input streams per seed and replays them on every later
// run, across configurations and semantics, turning bulk random
// initialisation into straight copies (see mp.Stream).
//
// Kernels are cached by Key - the (bench, semantics, machine fingerprint,
// precision vector) prefix of the run-cache purity key, i.e. everything
// that identifies an execution except the workload seed - plus the
// program's site count, so a configuration revisited by another search
// algorithm, another campaign job, or another tenant reuses the
// specialized kernel, and two programs that share a name but not a shape
// never share a tape. The cache only memoizes the specialization, never
// results: every Run call executes the benchmark, and results are
// memoized only by the run cache (bench.Cache), which also indexes
// executions by the read set Run reports. Everything a caller can
// observe - outputs, costs, profiles, read sets - is byte-identical to
// running the program once on a fresh tape with the configuration
// applied; the mp package documents why (exact deferred charging,
// recorded pre-rounding value replay).
package compile

import (
	"sync"
	"sync/atomic"

	"repro/internal/mp"
	"repro/internal/runcache"
	"repro/internal/telemetry"
)

// Program is the compiler's view of one benchmark: just enough surface to
// size the tape, gate input-stream reuse, and execute. internal/bench
// adapts its Benchmark interface onto it (the dependency points this way
// so bench can route its Runner through this package).
type Program interface {
	// Name is the suite-wide benchmark identifier.
	Name() string
	// NumSites is the total tape-slot count: searchable variables plus
	// hidden precision sites.
	NumSites() int
	// PureInit reports whether the benchmark's random-input generation is
	// a pure function of the workload seed - same draws, same bulk
	// initialisations, regardless of configuration. Only then may input
	// streams recorded under one configuration replay under another.
	PureInit() bool
	// Exec runs the benchmark against the tape and returns the
	// verification output values.
	Exec(t *mp.Tape, seed int64) []float64
}

// Key identifies one compiled kernel: the run-cache purity key without
// the workload seed. Two executions that agree on the key differ only in
// input data, which is exactly what a compiled kernel abstracts over.
type Key struct {
	// Bench is the benchmark name.
	Bench string
	// Semantics is the demotion tier the kernel specializes.
	Semantics runcache.Semantics
	// Model is the machine-model fingerprint of the owning runner.
	Model uint64
	// Config is the compact precision-vector key (bench.Config.Key).
	Config string
}

// Stats is a point-in-time view of the compiler's activity. Hits and
// Misses sum to the number of Compile calls; the split between them
// depends on real scheduling (who compiles first), so keep Stats out of
// deterministic snapshots - the runcache package documents the same
// caveat.
type Stats struct {
	// Kernels is the number of distinct compiled kernels resident.
	Kernels uint64 `json:"kernels"`
	// Hits counts Compile calls served from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts Compile calls that specialized a fresh kernel.
	Misses uint64 `json:"misses"`
	// Streams is the number of recorded input streams resident.
	Streams uint64 `json:"streams"`
	// StreamRecords counts runs that recorded their input stream;
	// StreamReplays counts runs served from a recorded stream.
	StreamRecords uint64 `json:"stream_records"`
	StreamReplays uint64 `json:"stream_replays"`
}

// Compiler specializes and caches compiled kernels. One Compiler is meant
// to be shared as widely as the machine allows - across search
// algorithms, campaign jobs, and tenants - because Key carries everything
// that distinguishes two specializations. The zero value is not usable;
// construct with New.
type Compiler struct {
	mu      sync.RWMutex
	kernels map[kernelKey]*Kernel
	streams map[streamKey]*mp.Stream

	tel *telemetry.Recorder

	hits, misses     atomic.Uint64
	records, replays atomic.Uint64
}

// kernelKey addresses compiled kernels: the caller's Key plus the
// program's site count, the size of the tape the kernel specializes.
type kernelKey struct {
	Key
	sites int
}

// streamKey addresses recorded input streams: input generation depends
// only on the benchmark and the workload seed, never on configuration,
// semantics, or machine model, so streams are shared across all kernels
// of a benchmark.
type streamKey struct {
	bench string
	seed  int64
}

// New returns an empty compiler. tel, when non-nil, receives the
// compile-cache counters (mixpbench_compile_cache_{hits,misses}_total and
// mixpbench_compile_stream_{records,replays}_total, labelled by bench);
// the hit/miss split reflects real scheduling, so keep this recorder out
// of any deterministic campaign snapshot, as with the run cache.
func New(tel *telemetry.Recorder) *Compiler {
	return &Compiler{
		kernels: make(map[kernelKey]*Kernel),
		streams: make(map[streamKey]*mp.Stream),
		tel:     tel,
	}
}

// Compile returns the compiled kernel for (key, prog.NumSites()),
// specializing it from prog and cfg on first use. cfg may be shorter than
// prog.NumSites (unlisted trailing sites stay F64, as a fresh tape leaves
// them) and must be the configuration key identified by key.Config.
func (c *Compiler) Compile(key Key, prog Program, cfg []mp.Prec) *Kernel {
	kk := kernelKey{key, prog.NumSites()}
	c.mu.RLock()
	k := c.kernels[kk]
	c.mu.RUnlock()
	if k != nil {
		c.hits.Add(1)
		c.count("mixpbench_compile_cache_hits_total", key.Bench)
		return k
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k = c.kernels[kk]; k != nil {
		c.hits.Add(1)
		c.count("mixpbench_compile_cache_hits_total", key.Bench)
		return k
	}
	precs := make([]mp.Prec, kk.sites)
	copy(precs, cfg)
	k = &Kernel{
		c:           c,
		name:        key.Bench,
		precs:       precs,
		computeOnly: key.Semantics == runcache.IR,
	}
	c.kernels[kk] = k
	c.misses.Add(1)
	c.count("mixpbench_compile_cache_misses_total", key.Bench)
	return k
}

// Stats returns the compiler's activity counters.
func (c *Compiler) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.RLock()
	kernels := uint64(len(c.kernels))
	streams := uint64(len(c.streams))
	c.mu.RUnlock()
	return Stats{
		Kernels:       kernels,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Streams:       streams,
		StreamRecords: c.records.Load(),
		StreamReplays: c.replays.Load(),
	}
}

// stream returns the recorded input stream for (bench, seed), nil if no
// run has published one yet.
func (c *Compiler) stream(bench string, seed int64) *mp.Stream {
	c.mu.RLock()
	s := c.streams[streamKey{bench, seed}]
	c.mu.RUnlock()
	return s
}

// publishStream stores a freshly recorded stream, first-publish-wins:
// concurrent recorders capture identical streams (recording is a pure
// function of bench and seed), so whichever lands first is kept and the
// rest are discarded.
func (c *Compiler) publishStream(bench string, seed int64, s *mp.Stream) {
	if s == nil {
		return
	}
	key := streamKey{bench, seed}
	c.mu.Lock()
	if _, ok := c.streams[key]; !ok {
		c.streams[key] = s
	}
	c.mu.Unlock()
}

func (c *Compiler) count(name, bench string) {
	if c.tel != nil {
		c.tel.Counter(name, "bench", bench).Inc()
	}
}

// Kernel is one precision-specialized compiled form of a benchmark: a
// pool of frozen tapes with the configuration folded in, plus the
// machinery to record or replay per-seed input streams. A Kernel holds
// the specialization only, never the benchmark instance - Run takes the
// Program per call, so suite lookups that construct fresh (equivalent)
// benchmark values per use always execute the caller's instance. Kernels
// are immutable after compilation and safe for concurrent Run calls
// (each run draws a private tape from the pool).
type Kernel struct {
	c           *Compiler
	name        string
	precs       []mp.Prec
	computeOnly bool
	tapes       sync.Pool
}

// NumSites is the tape-slot count the kernel was specialized for.
func (k *Kernel) NumSites() int { return len(k.precs) }

// Run executes the kernel once against prog with inputs generated from
// seed and returns the verification values, the metered cost, the
// per-variable profile, and the read set (mp.Tape.ReadSet: the sites
// whose precision the run observed) - bit-identical to a run of prog on
// a fresh tape with the same configuration. prog must have the site
// count the kernel was compiled for (Compile keys kernels by it).
func (k *Kernel) Run(prog Program, seed int64) (vals []float64, cost mp.Cost, prof []mp.VarProfile, reads []bool) {
	t, _ := k.tapes.Get().(*mp.Tape)
	if t == nil {
		t = k.newTape()
	}
	recording := false
	if prog.PureInit() {
		if s := k.c.stream(k.name, seed); s != nil {
			t.Replay(s)
			k.c.replays.Add(1)
			k.c.count("mixpbench_compile_stream_replays_total", k.name)
		} else {
			t.StartRecording()
			recording = true
		}
	}
	vals = prog.Exec(t, seed)
	cost = t.Cost()
	prof = t.Profile()
	reads = t.ReadSet()
	if recording {
		k.c.publishStream(k.name, seed, t.FinishRecording())
		k.c.records.Add(1)
		k.c.count("mixpbench_compile_stream_records_total", k.name)
	}
	t.Reset()
	k.tapes.Put(t)
	return vals, cost, prof, reads
}

// newTape specializes one frozen tape: configuration and semantics are
// applied once here instead of per execution.
func (k *Kernel) newTape() *mp.Tape {
	t := mp.NewTape(len(k.precs))
	if k.computeOnly {
		t.SetComputeOnly(true)
	}
	for i, p := range k.precs {
		if p != mp.F64 {
			t.SetPrec(mp.VarID(i), p)
		}
	}
	t.Freeze()
	return t
}

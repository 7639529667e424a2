// Package compile executes benchmark configurations on recycled tapes.
// It is the only way internal/bench executes a configuration.
//
// The compiler keeps one pool of tapes per program shape (name and site
// count). A run draws a tape, applies its whole configuration and
// semantics in one mp.Tape.Configure, executes, and Resets the tape back
// into the pool, so the next run of the program - under any
// configuration - reuses its arrays instead of allocating them again.
// For benchmarks whose input generation is a pure function of the
// workload seed (bench.PureIniter), the compiler also records the first
// run's input streams per (bench, seed) and replays them on every later
// run, across configurations and semantics, turning bulk random
// initialisation into straight copies (see mp.Stream).
//
// The compiler never memoizes results: every Run executes the benchmark,
// and results are memoized only by the run cache (bench.Cache), which
// also indexes executions by the read set Run reports. Everything a
// caller can observe - outputs, costs, profiles, read sets - is
// byte-identical to running the program once on a fresh tape with the
// configuration applied; the mp package documents why (exact deferred
// charging, recorded pre-rounding value replay).
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

// Stats is a point-in-time view of the compiler's activity. Hits and
// Misses sum to the number of Run calls; the split between them depends
// on real scheduling and on the garbage collector (a sync.Pool may drop
// an idle tape at any collection), so keep Stats out of deterministic
// snapshots - the runcache package documents the same caveat.
type Stats struct {
	// Kernels is the number of resident tape pools, one per program
	// shape run so far.
	Kernels uint64 `json:"kernels"`
	// Hits counts runs on a tape recycled from an earlier run.
	Hits uint64 `json:"hits"`
	// Misses counts runs on a freshly allocated tape.
	Misses uint64 `json:"misses"`
	// Streams is the number of recorded input streams resident.
	Streams uint64 `json:"streams"`
	// StreamRecords counts runs that recorded their input stream;
	// StreamReplays counts runs served from a recorded stream.
	StreamRecords uint64 `json:"stream_records"`
	StreamReplays uint64 `json:"stream_replays"`
}

// Compiler runs programs on pooled tapes and keeps their recorded input
// streams. One Compiler is meant to be shared as widely as the machine
// allows - across search algorithms, campaign jobs, and tenants: tapes
// carry no configuration between runs, and streams depend only on the
// benchmark and the seed. The zero value is not usable; construct with
// New.
type Compiler struct {
	mu      sync.RWMutex
	pools   map[poolKey]*sync.Pool
	streams map[streamKey]*mp.Stream

	tel *telemetry.Recorder

	hits, misses     atomic.Uint64
	records, replays atomic.Uint64
}

// poolKey addresses tape pools: programs that share a name but not a
// site count never share a tape.
type poolKey struct {
	bench string
	sites int
}

// streamKey addresses recorded input streams: input generation depends
// only on the benchmark and the workload seed, never on configuration,
// semantics, or machine model, so streams are shared across every run
// of a benchmark.
type streamKey struct {
	bench string
	seed  int64
}

// New returns an empty compiler. tel, when non-nil, receives the
// compiler's counters (mixpbench_compile_cache_{hits,misses}_total for
// runs on recycled and fresh tapes, and
// mixpbench_compile_stream_{records,replays}_total, labelled by bench);
// the hit/miss split reflects real scheduling, so keep this recorder out
// of any deterministic campaign snapshot, as with the run cache.
func New(tel *telemetry.Recorder) *Compiler {
	return &Compiler{
		pools:   make(map[poolKey]*sync.Pool),
		streams: make(map[streamKey]*mp.Stream),
		tel:     tel,
	}
}

// Run executes prog once under configuration cfg and semantics sem with
// inputs generated from seed, and returns the verification values, the
// metered cost, the per-variable profile, and the read set
// (mp.Tape.ReadSet: the sites whose precision the run observed) -
// bit-identical to a run of prog on a fresh tape with the same
// configuration. cfg may be shorter than prog.NumSites: unlisted
// trailing sites stay F64, as a fresh tape leaves them. Run is safe for
// concurrent use; each run holds a private tape.
func (c *Compiler) Run(prog Program, cfg []mp.Prec, sem runcache.Semantics, seed int64) (vals []float64, cost mp.Cost, prof []mp.VarProfile, reads []bool) {
	name, sites := prog.Name(), prog.NumSites()
	pool := c.pool(poolKey{name, sites})
	t, _ := pool.Get().(*mp.Tape)
	if t != nil {
		c.hits.Add(1)
		c.count("mixpbench_compile_cache_hits_total", name)
	} else {
		t = mp.NewTape(sites)
		c.misses.Add(1)
		c.count("mixpbench_compile_cache_misses_total", name)
	}
	t.Configure(cfg, sem == runcache.IR)
	recording := false
	if prog.PureInit() {
		if s := c.stream(name, seed); s != nil {
			t.Replay(s)
			c.replays.Add(1)
			c.count("mixpbench_compile_stream_replays_total", name)
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
		c.publishStream(name, seed, t.FinishRecording())
		c.records.Add(1)
		c.count("mixpbench_compile_stream_records_total", name)
	}
	t.Reset()
	pool.Put(t)
	return vals, cost, prof, reads
}

// pool returns the tape pool for one program shape, creating it on first
// use.
func (c *Compiler) pool(k poolKey) *sync.Pool {
	c.mu.RLock()
	p := c.pools[k]
	c.mu.RUnlock()
	if p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p = c.pools[k]; p == nil {
		p = new(sync.Pool)
		c.pools[k] = p
	}
	return p
}

// Stats returns the compiler's activity counters.
func (c *Compiler) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.RLock()
	pools := uint64(len(c.pools))
	streams := uint64(len(c.streams))
	c.mu.RUnlock()
	return Stats{
		Kernels:       pools,
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

// Package bench defines the benchmark contract of HPC-MixPBench and the
// runner that executes one precision configuration of one benchmark.
//
// A benchmark is a program ported into the suite: it declares its tunable
// floating-point variables (with the type-dependence edges Typeforge would
// extract from the original source), names the quality metric its output is
// verified with, and runs its computation against an mp.Tape that carries
// the active precision configuration. Everything a search algorithm learns
// about a configuration - output values, numeric error, modelled execution
// time - flows through this package.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/mp"
	"repro/internal/perfmodel"
	"repro/internal/runcache"
	"repro/internal/telemetry"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// Kind separates the two benchmark classes of the suite.
type Kind uint8

const (
	// Kernel marks the small Livermore-style loop kernels (Table I): no
	// IO, randomly initialised inputs, few variables.
	Kernel Kind = iota
	// App marks the proxy/mini applications drawn from PARSEC, Rodinia,
	// and Mantevo.
	App
)

// String returns the class name.
func (k Kind) String() string {
	if k == Kernel {
		return "kernel"
	}
	return "application"
}

// Output is the verification payload of one run: the values the original
// program would write to its output file (or, for K-means, the cluster
// assignment labels scored with MCR).
type Output struct {
	Values []float64
}

// Benchmark is one program of the suite. Implementations must be stateless
// with respect to Run: all run state lives on the Tape and in locals, so a
// single Benchmark value can be evaluated concurrently.
type Benchmark interface {
	// Name is the suite-wide identifier (matches the paper's tables).
	Name() string
	// Kind reports whether this is a kernel or an application.
	Kind() Kind
	// Description is the one-line description from Table I / Section III-B.
	Description() string
	// Metric is the quality metric the paper verifies this benchmark with.
	Metric() verify.Metric
	// Graph is the variable inventory with type-dependence edges. The
	// returned graph is shared and must not be mutated.
	Graph() *typedep.Graph
	// Run executes the benchmark against the precision configuration
	// carried by the tape, with inputs generated deterministically from
	// seed, and returns the verification output.
	Run(t *mp.Tape, seed int64) Output
}

// HiddenVarser is implemented by benchmarks with precision sites that a
// source-level tool cannot retype - floating-point literals and library
// temporaries. The paper observes (Hotspot, Section IV-B) that Typeforge
// does not handle literals, so searched configurations execute extra
// typecasts that a manual whole-program conversion avoids. Hidden variables
// occupy tape slots beyond the dependence graph: the search never assigns
// them, but RunManualSingle demotes them along with everything else.
type HiddenVarser interface {
	// HiddenVars returns the number of non-searchable precision sites.
	HiddenVars() int
}

// hiddenVars returns b's hidden site count (zero for most benchmarks).
func hiddenVars(b Benchmark) int {
	if h, ok := b.(HiddenVarser); ok {
		return h.HiddenVars()
	}
	return 0
}

// PureIniter is implemented by benchmarks whose random-input generation
// is a pure function of the workload seed: the sequence of generator
// draws and bulk array initialisations in Run never depends on the
// precision configuration (every port of the suite draws its inputs in a
// configuration-independent prefix of Run). Declaring it lets the
// compiler (internal/compile) record one input stream per (benchmark,
// seed) and replay it across every configuration and semantics tier;
// benchmarks without the declaration still run, they just regenerate
// inputs each run.
type PureIniter interface {
	// PureInit reports whether input generation is seed-pure.
	PureInit() bool
}

// Config is one precision assignment: element i is the precision of
// variable i. A nil Config means the original all-double program.
type Config []mp.Prec

// NewConfig returns an all-double configuration for n variables.
func NewConfig(n int) Config { return make(Config, n) }

// Clone returns an independent copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Singles returns the number of variables demoted to single precision.
func (c Config) Singles() int {
	n := 0
	for _, p := range c {
		if p == mp.F32 {
			n++
		}
	}
	return n
}

// Demoted returns the number of variables assigned any format below
// double precision. On the default {f64, f32} ladder it equals Singles.
func (c Config) Demoted() int {
	n := 0
	for _, p := range c {
		if p != mp.F64 {
			n++
		}
	}
	return n
}

// appendPrec appends p's key spelling to dst: one digit for a built-in
// format (the historical encoding, so default-ladder keys are unchanged),
// and an injective "(e.m)" escape for a custom format - '(' can never be
// confused with a digit, so distinct configurations always have distinct
// keys.
func appendPrec(dst []byte, p mp.Prec) []byte {
	if !p.IsCustom() {
		return append(dst, '0'+byte(p))
	}
	dst = append(dst, '(')
	dst = strconv.AppendInt(dst, int64(p.ExpBits()), 10)
	dst = append(dst, '.')
	dst = strconv.AppendInt(dst, int64(p.MantBits()), 10)
	return append(dst, ')')
}

// Key returns a compact string identity usable as a cache key.
func (c Config) Key() string {
	if len(c) == 0 {
		return ""
	}
	return string(c.AppendKey(make([]byte, 0, len(c))))
}

// AppendKey appends the compact key to dst and returns the extended
// slice. Hot paths that probe a map per proposed configuration use it
// with a reused buffer: the probe then allocates nothing (a map lookup on
// string(buf) does not materialise the string).
func (c Config) AppendKey(dst []byte) []byte {
	for _, p := range c {
		dst = appendPrec(dst, p)
	}
	return dst
}

// ParseKey is the inverse of Config.Key: it parses the compact key
// spelling back into a configuration. The journal uses it to rebuild
// ladder configurations from checkpointed records.
func ParseKey(s string) (Config, error) {
	if s == "" {
		return nil, nil
	}
	c := make(Config, 0, len(s))
	for i := 0; i < len(s); {
		b := s[i]
		switch {
		case b >= '0' && b <= '3':
			c = append(c, mp.Prec(b-'0'))
			i++
		case b == '(':
			j := strings.IndexByte(s[i:], ')')
			if j < 0 {
				return nil, fmt.Errorf("bench: config key %q: unterminated custom format", s)
			}
			e, m, found := strings.Cut(s[i+1:i+j], ".")
			if !found {
				return nil, fmt.Errorf("bench: config key %q: malformed custom format", s)
			}
			eBits, err1 := strconv.Atoi(e)
			mBits, err2 := strconv.Atoi(m)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bench: config key %q: malformed custom format", s)
			}
			p, err := mp.Custom(eBits, mBits)
			if err != nil {
				return nil, fmt.Errorf("bench: config key %q: %w", s, err)
			}
			c = append(c, p)
			i += j + 1
		default:
			return nil, fmt.Errorf("bench: config key %q: invalid byte %q at %d", s, b, i)
		}
	}
	return c, nil
}

// AllSingle returns a configuration demoting every variable.
func AllSingle(n int) Config {
	c := make(Config, n)
	for i := range c {
		c[i] = mp.F32
	}
	return c
}

// Result is everything one evaluation of one configuration yields. A
// Result from Runner.RunShared shares Output.Values and Profile with the
// run cache and must not be mutated; every other Runner method returns
// slices the caller owns.
type Result struct {
	// Output is the verification payload.
	Output Output
	// Cost is the metered machine work.
	Cost mp.Cost
	// Profile attributes the cost to the tunable variables (the
	// instrumentation half of the runtime library); profile-guided
	// strategies rank demotion candidates with it.
	Profile []mp.VarProfile
	// ModelTime is the noiseless modelled execution time in seconds.
	ModelTime float64
	// Energy is the modelled energy of one execution in joules (dynamic
	// work plus idle power for the modelled duration; see
	// perfmodel.Machine.Energy).
	Energy float64
	// Measured is the paper-protocol timing (trimmed mean of repeated
	// jittered runs).
	Measured perfmodel.Measurement
}

// Runner executes benchmark configurations under one machine model and
// measurement protocol.
type Runner struct {
	// Machine is the analytic execution-time model.
	Machine perfmodel.Machine
	// Runs is the repetition count of the measurement protocol.
	Runs int
	// Seed generates benchmark workloads; a fixed Seed makes every
	// configuration of a benchmark see identical inputs, which the
	// verification comparison requires.
	Seed int64
	// Telemetry, when non-nil, records per-run timings and the perfmodel
	// cost breakdown (flops, casts, traffic) of every execution.
	Telemetry *telemetry.Recorder
	// Cache, when non-nil, memoises executions process-wide: a
	// configuration already executed under the same benchmark, seed,
	// demotion semantics, and machine model is served from the shared
	// store instead of being executed again, and a new configuration that
	// agrees with an earlier execution on every site that execution read
	// reuses its output, cost, and profile (see Cache). Every run is a
	// pure function of that key, so the served Result is byte-identical
	// to a fresh execution - callers keep charging simulated build+run
	// seconds per call and keep observing per-run telemetry, which is
	// what makes budgets, EV counts, traces, and campaign snapshots
	// invariant to the cache being on or off. Many runners (one per
	// campaign job) share one Cache; the machine model is part of the
	// key, so runners with different models coexist safely. Nil means
	// every configuration executes.
	//
	// The cache shares each stored Result with every caller (see Cache).
	// RunShared hands it out as it is, read-only; Run, RunContext, RunIR,
	// RunManualSingle, and Reference copy its Output.Values and Profile
	// first, so their callers may mutate what they get.
	Cache *Cache
	// Compiler runs the executions the run cache does not serve, on
	// tapes pooled per program and with input streams recorded per
	// (benchmark, seed) (internal/compile). Nil means the process-wide
	// shared compiler, which maximises tape and stream reuse across
	// campaigns and tenants; neither depends on the machine model.
	Compiler *compile.Compiler
}

// NewRunner returns a Runner with the default machine, the paper's
// ten-repetition protocol, and the given workload seed.
func NewRunner(seed int64) *Runner {
	return &Runner{Machine: perfmodel.Default(), Runs: perfmodel.DefaultRuns, Seed: seed}
}

// sharedCompiler is the process-wide compiler runners fall back to: tape
// and stream reuse want the widest possible sharing.
var sharedCompiler = compile.New(nil)

// compiler returns the compiler in effect for this runner.
func (r *Runner) compiler() *compile.Compiler {
	if r.Compiler != nil {
		return r.Compiler
	}
	return sharedCompiler
}

// program adapts a Benchmark onto the compiler's Program surface.
type program struct{ b Benchmark }

func (p program) Name() string  { return p.b.Name() }
func (p program) NumSites() int { return p.b.Graph().NumVars() + hiddenVars(p.b) }
func (p program) PureInit() bool {
	pi, ok := p.b.(PureIniter)
	return ok && pi.PureInit()
}
func (p program) Exec(t *mp.Tape, seed int64) []float64 { return p.b.Run(t, seed).Values }

// execute produces one configuration's Result on a run-cache miss (the
// core of Run, RunIR, and RunManualSingle). The output, cost, and
// profile come from the cache's execution index when an earlier
// execution read only sites on which cfg agrees with it, and from a run
// on the compiler otherwise; the modelled time, energy, and
// jittered measurement always derive from the full cfg. name is the
// jitter-stream identity (the benchmark name, with the "/ir" suffix
// under IR semantics).
func (r *Runner) execute(b Benchmark, sem runcache.Semantics, name string, cfg Config) Result {
	prog := program{b}
	ek := execKey{bench: b.Name(), seed: r.Seed, sem: sem, model: r.modelFingerprint(), sites: prog.NumSites()}
	ex, ok := r.Cache.lookup(ek, cfg)
	if !ok {
		var reads []bool
		ex.output.Values, ex.cost, ex.profile, reads = r.compiler().Run(prog, cfg, sem, r.Seed)
		r.Cache.record(ek, cfg, reads, ex)
	}
	modelTime := r.Machine.Time(ex.cost)
	rng := rand.New(rand.NewSource(r.jitterSeed(name, cfg)))
	return Result{
		Output:    ex.output,
		Cost:      ex.cost,
		Profile:   ex.profile,
		ModelTime: modelTime,
		Energy:    r.Machine.Energy(ex.cost),
		Measured:  perfmodel.Measure(modelTime, r.Runs, rng),
	}
}

// Run evaluates one configuration. A nil cfg runs the original program. The
// measurement jitter stream is derived from the workload seed and the
// configuration identity, so results are deterministic yet distinct per
// configuration.
func (r *Runner) Run(b Benchmark, cfg Config) Result {
	res, _ := r.RunContext(nil, b, cfg)
	return res
}

// RunContext is Run under a cancellation context: a call that would block
// on a shared cache's in-flight execution (another tenant is executing
// the same configuration right now) returns the context's error as soon
// as ctx is done instead of waiting the execution out. Executions this
// runner leads always complete - a half-run would poison the shared entry
// - so the error return is exclusively the waiting side's. A nil ctx
// never cancels, making RunContext(nil, b, cfg) identical to Run.
func (r *Runner) RunContext(ctx context.Context, b Benchmark, cfg Config) (Result, error) {
	res, err := r.RunShared(ctx, b, cfg)
	return r.owned(res), err
}

// RunShared is RunContext without the copy: with a cache installed, the
// returned Output.Values and Profile are the cache's stored slices,
// shared with every other caller, and must not be mutated. The
// evaluator calls it for every candidate, since it only reads them.
func (r *Runner) RunShared(ctx context.Context, b Benchmark, cfg Config) (Result, error) {
	n := b.Graph().NumVars()
	if cfg != nil && len(cfg) != n {
		panic(fmt.Sprintf("bench: config for %s has %d entries, want %d", b.Name(), len(cfg), n))
	}
	res, err := r.memoised(ctx, b, runcache.Source, cfg, func() Result { return r.execute(b, runcache.Source, b.Name(), cfg) })
	if err != nil {
		return Result{}, err
	}
	kind := "candidate"
	if cfg == nil {
		kind = "reference"
	}
	r.observe(b, kind, res)
	return res, nil
}

// owned returns res with slices its caller owns: a copy when a cache is
// installed, whose entries are shared, and res itself otherwise, since a
// fresh execution's slices belong to no one else.
func (r *Runner) owned(res Result) Result {
	if r.Cache == nil {
		return res
	}
	return cloneResult(res)
}

// memoised routes one execution through the shared cache when one is
// installed, keyed by everything that can change the result. With no
// cache it just executes; the error return is exclusively a done ctx
// observed while waiting on another caller's in-flight execution.
func (r *Runner) memoised(ctx context.Context, b Benchmark, sem runcache.Semantics, cfg Config, fn func() Result) (Result, error) {
	if r.Cache == nil {
		return fn(), nil
	}
	return r.Cache.DoContext(ctx, runcache.Key{
		Bench:     b.Name(),
		Seed:      r.Seed,
		Semantics: sem,
		Model:     r.modelFingerprint(),
		Config:    cfg.Key(),
	}, fn)
}

// modelFingerprint hashes the machine model and measurement protocol into
// the cache key, so runners with different models sharing one cache can
// never serve each other's results. Mutating Machine or Runs mid-run is
// safe: the next execution simply keys differently.
//
//mixplint:key repro/internal/perfmodel.Machine -- every result-affecting Machine field must reach the cache key, or two machines collide on one stored record
//mixplint:keyexempt CacheLevel.Name -- display label; Time and Energy never read it, so it cannot change a result
func (r *Runner) modelFingerprint() uint64 {
	h := runcache.FNVOffset64
	mix := func(v uint64) {
		h = (h ^ v) * runcache.FNVPrime64
	}
	m := &r.Machine
	for i := 0; i < len(m.Name); i++ {
		mix(uint64(m.Name[i]))
	}
	mix(math.Float64bits(m.Rate64))
	mix(math.Float64bits(m.Rate32))
	mix(math.Float64bits(m.Rate16))
	mix(math.Float64bits(m.CastRate))
	mix(math.Float64bits(m.DRAMBandwidth))
	mix(math.Float64bits(m.RunOverhead))
	mix(uint64(len(m.Caches)))
	for _, c := range m.Caches {
		mix(c.Size)
		mix(math.Float64bits(c.Bandwidth))
	}
	for i := range m.CastMatrix {
		for j := range m.CastMatrix[i] {
			mix(math.Float64bits(m.CastMatrix[i][j]))
		}
	}
	for _, f := range m.EnergyModel.FlopJoules {
		mix(math.Float64bits(f))
	}
	mix(math.Float64bits(m.EnergyModel.ByteJoules))
	mix(math.Float64bits(m.EnergyModel.CastJoules))
	mix(math.Float64bits(m.EnergyModel.IdleWatts))
	mix(uint64(r.Runs))
	return h
}

// observe records one execution's timing and cost breakdown.
func (r *Runner) observe(b Benchmark, kind string, res Result) {
	if r.Telemetry == nil {
		return
	}
	name := b.Name()
	r.Telemetry.Counter("mixpbench_bench_runs_total", "bench", name, "kind", kind).Inc()
	r.Telemetry.Histogram("mixpbench_bench_model_seconds", telemetry.SecondsBuckets, "bench", name).Observe(res.ModelTime)
	c := res.Cost
	r.Telemetry.Counter("mixpbench_bench_flops64_total", "bench", name).Add(float64(c.Flops64))
	r.Telemetry.Counter("mixpbench_bench_flops32_total", "bench", name).Add(float64(c.Flops32))
	if c.Flops16 > 0 {
		r.Telemetry.Counter("mixpbench_bench_flops16_total", "bench", name).Add(float64(c.Flops16))
	}
	r.Telemetry.Counter("mixpbench_bench_casts_total", "bench", name).Add(float64(c.Casts))
	r.Telemetry.Counter("mixpbench_bench_traffic_bytes_total", "bench", name).Add(float64(c.Bytes()))
}

// Reference evaluates the original double-precision program.
func (r *Runner) Reference(b Benchmark) Result {
	return r.Run(b, nil)
}

// RunIR evaluates a configuration under IR-level demotion semantics (the
// paper's lower-level analysis tier): demoted variables compute narrow but
// their storage stays at the declared double width, as an
// instruction-rewriting tool would leave it. Accuracy changes like the
// source-level run; traffic and footprint do not.
func (r *Runner) RunIR(b Benchmark, cfg Config) Result {
	n := b.Graph().NumVars()
	if cfg != nil && len(cfg) != n {
		panic(fmt.Sprintf("bench: IR config for %s has %d entries, want %d", b.Name(), len(cfg), n))
	}
	res, _ := r.memoised(nil, b, runcache.IR, cfg, func() Result { return r.execute(b, runcache.IR, b.Name()+"/ir", cfg) })
	r.observe(b, "ir", res)
	return r.owned(res)
}

// RunManualSingle evaluates the whole-program single-precision conversion
// of the paper's Table IV: every searchable variable and every hidden site
// (literals included) is demoted, as a programmer editing the source would
// do. This is the ceiling a search-based tool cannot quite reach when the
// program has literal-typed expressions.
func (r *Runner) RunManualSingle(b Benchmark) Result {
	n := b.Graph().NumVars()
	h := hiddenVars(b)
	// The manual conversion is exactly a source-level run of the expanded
	// all-single configuration over every site, hidden ones included: the
	// tape setup, jitter stream, and hence the whole Result coincide. It
	// therefore shares Source-semantics cache entries - for a benchmark
	// without hidden sites, a searched all-single candidate and the manual
	// ceiling are one execution.
	full := AllSingle(n + h)
	res, _ := r.memoised(nil, b, runcache.Source, full, func() Result { return r.execute(b, runcache.Source, b.Name(), full) })
	r.observe(b, "manual-single", res)
	return r.owned(res)
}

// jitterSeed mixes the workload seed, benchmark name, and configuration
// into one deterministic RNG seed. It is a hand-rolled FNV-1a over the
// byte stream "<seed>/<name>/<config key>" - the exact stream the
// previous fmt.Fprintf implementation hashed, now without allocating or
// materialising the key.
func (r *Runner) jitterSeed(name string, cfg Config) int64 {
	h := runcache.FNVOffset64
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], r.Seed, 10) {
		h = (h ^ uint64(b)) * runcache.FNVPrime64
	}
	h = (h ^ '/') * runcache.FNVPrime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * runcache.FNVPrime64
	}
	h = (h ^ '/') * runcache.FNVPrime64
	for _, p := range cfg {
		if !p.IsCustom() {
			h = (h ^ uint64('0'+byte(p))) * runcache.FNVPrime64
			continue
		}
		for _, b := range appendPrec(buf[:0], p) {
			h = (h ^ uint64(b)) * runcache.FNVPrime64
		}
	}
	return int64(h)
}

// Package runcache is a process-wide memo store for deterministic
// benchmark executions. The paper's evaluation is a multi-day cluster
// campaign because every (algorithm, benchmark, threshold) job re-executes
// configurations independently; in this reproduction every execution is a
// pure function of (benchmark, workload seed, demotion semantics, machine
// model, configuration), so the whole campaign can share one memo table.
// The baseline, the all-single probe, and every single-variable candidate
// that greedy, combinational, and delta debugging all visit are then
// executed once per process instead of once per job - CRAFT's
// within-analysis memoisation lifted to the campaign level.
//
// The store is sharded for concurrency and deduplicates in flight: when
// two workers propose the same configuration at the same moment, one
// executes while the other waits for the result (singleflight).
//
// Sharing rule: every caller for a key receives the stored value itself,
// never a copy, so reference fields (slices, maps, pointers) inside it
// are shared by every tenant of the cache and are read-only. A caller
// that needs to mutate a result copies it first; the cache copies
// nothing, which is what makes a hit cost a lookup and nothing more.
//
// Determinism contract: the cache changes which executions physically run,
// never what any caller observes. Callers charge simulated build+run time
// per call, whether the result came from an execution or from the table,
// so budgets, EV counts, traces, and campaign telemetry are byte-identical
// with the cache on or off, under any worker count. The cache's own
// counters are the one exception - the hit/miss split between workers
// depends on real scheduling - which is why they live on the cache's own
// recorder, never in the deterministic per-job telemetry merge.
package runcache

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Semantics names the demotion tier an execution ran under; executions
// with different semantics never share results.
type Semantics uint8

const (
	// Source is source-level demotion (storage and arithmetic narrow).
	Source Semantics = iota
	// IR is IR-level demotion (arithmetic narrows, storage stays double).
	IR
)

// String returns the tier name.
func (s Semantics) String() string {
	if s == IR {
		return "ir"
	}
	return "source"
}

// Key identifies one deterministic execution. Two executions with equal
// keys produce identical results; everything that can change a result -
// the benchmark, the workload seed, the demotion semantics, the machine
// model and measurement protocol, and the precision configuration - is a
// component.
type Key struct {
	// Bench is the benchmark's suite-wide name.
	Bench string
	// Seed is the workload seed.
	Seed int64
	// Semantics is the demotion tier.
	Semantics Semantics
	// Model fingerprints the machine model and measurement protocol.
	Model uint64
	// Config is the configuration's compact digit key ("" = all-double).
	Config string
}

// FNV-1a 64-bit constants, shared by the key hash and callers that build
// Model fingerprints.
const (
	FNVOffset64 uint64 = 14695981039346656037
	FNVPrime64  uint64 = 1099511628211
)

// shardCount is a power of two; benchmarks rarely need more than a few
// shards, but contended campaign workers benefit from spreading the locks.
const shardCount = 16

// hash mixes the key into the shard index.
func (k Key) hash() uint64 {
	h := FNVOffset64
	for i := 0; i < len(k.Bench); i++ {
		h = (h ^ uint64(k.Bench[i])) * FNVPrime64
	}
	h = (h ^ uint64(k.Seed)) * FNVPrime64
	h = (h ^ uint64(k.Semantics)) * FNVPrime64
	h = (h ^ k.Model) * FNVPrime64
	for i := 0; i < len(k.Config); i++ {
		h = (h ^ uint64(k.Config[i])) * FNVPrime64
	}
	return h
}

// AppendBinary appends the key's canonical binary form to dst and
// returns the extended slice. This is the content address used by the
// durable store tier: bench name, NUL, then the fixed-width numeric
// components, then the config digits. Bench names never contain NUL, so
// the encoding is injective, and every component is little-endian so the
// bytes are stable across architectures.
//
//mixplint:key Key -- the content address must cover every purity-key component, or distinct runs collide in the durable tier
func (k Key) AppendBinary(dst []byte) []byte {
	dst = append(dst, k.Bench...)
	dst = append(dst, 0)
	dst = append(dst,
		byte(k.Seed), byte(k.Seed>>8), byte(k.Seed>>16), byte(k.Seed>>24),
		byte(k.Seed>>32), byte(k.Seed>>40), byte(k.Seed>>48), byte(k.Seed>>56))
	dst = append(dst, byte(k.Semantics))
	dst = append(dst,
		byte(k.Model), byte(k.Model>>8), byte(k.Model>>16), byte(k.Model>>24),
		byte(k.Model>>32), byte(k.Model>>40), byte(k.Model>>48), byte(k.Model>>56))
	return append(dst, k.Config...)
}

// Tier is a second, typically durable, cache level behind the in-memory
// table: the leader for a key consults the tier before executing, and
// publishes fresh executions to it. Load and Store must be safe for
// concurrent use; Store may be asynchronous (write-behind). The tier
// only changes which executions physically run - a tier hit is
// indistinguishable from an execution to every caller - so the
// determinism contract in the package comment holds with any tier.
type Tier[V any] interface {
	// Load returns the tier's value for k, or false. The returned value
	// becomes the stored entry that every caller shares, so the tier
	// must not keep a reference to it.
	Load(k Key) (V, bool)
	// Store publishes a freshly executed value to the tier. v is the
	// shared entry: the tier must not mutate it or retain its reference
	// fields past the call (encode or copy before returning).
	Store(k Key, v V)
}

// entry is one memoised execution. done is closed once val is final;
// panicked marks a leader that died mid-execution (its waiters retry).
type entry[V any] struct {
	done     chan struct{}
	val      V
	panicked bool
}

// shard is one lock domain of the table.
type shard[V any] struct {
	mu      sync.Mutex
	entries map[Key]*entry[V]
}

// Stats is a point-in-time view of the cache's traffic.
type Stats struct {
	// Hits counts calls served from a completed or in-flight execution.
	Hits uint64
	// Misses counts calls that led the execution for their key.
	Misses uint64
	// InflightWaits counts hits that had to block on an execution still
	// in flight. Unlike Hits and Misses (whose totals are a function of
	// the campaign alone), this split depends on real worker scheduling.
	InflightWaits uint64
	// Entries is the number of completed results resident.
	Entries uint64
	// TierHits counts leader calls served by the durable tier instead of
	// an execution; TierMisses counts leader calls the tier could not
	// serve; TierWrites counts fresh executions published to the tier.
	// All zero when no tier is configured.
	TierHits   uint64
	TierMisses uint64
	TierWrites uint64
}

// Options configures a Cache.
type Options[V any] struct {
	// Telemetry, when non-nil, receives the cache's counters
	// (mixpbench_runcache_{hits,misses,inflight_waits}_total, labelled by
	// bench) and one "runcache_hit" event per hit. These reflect real
	// scheduling, so keep this recorder out of any deterministic
	// snapshot; see the package comment.
	Telemetry *telemetry.Recorder
	// Tier, when non-nil, is the durable second level consulted by
	// leaders before executing and fed by fresh executions (see Tier).
	Tier Tier[V]
}

// Cache is a concurrent, sharded memo store with singleflight
// deduplication. The zero value is not usable; construct with New.
type Cache[V any] struct {
	opts   Options[V]
	shards [shardCount]shard[V]

	hits       atomic.Uint64
	misses     atomic.Uint64
	waits      atomic.Uint64
	entries    atomic.Uint64
	tierHits   atomic.Uint64
	tierMisses atomic.Uint64
	tierWrites atomic.Uint64
}

// New returns an empty cache.
func New[V any](opts Options[V]) *Cache[V] {
	c := &Cache[V]{opts: opts}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry[V])
	}
	return c
}

// Do returns the memoised value for k, executing fn to produce it on the
// first call. Concurrent calls for the same key execute fn once: the
// first caller leads, the rest wait for its result. Every call returns
// the stored value itself, whose reference fields are shared and must
// not be mutated (see the package comment). A nil cache executes fn
// directly.
//
// If the leading call panics, its entry is discarded and each waiter
// retries Do - typically reproducing the panic in its own call frame, so
// per-job panic recovery behaves exactly as it would without the cache.
func (c *Cache[V]) Do(k Key, fn func() V) V {
	v, _ := c.DoContext(nil, k, fn)
	return v
}

// DoContext is Do with early release of singleflight waiters: a caller
// blocked on another caller's in-flight execution returns the context's
// error as soon as ctx is done instead of waiting the leader out. The
// leader itself always runs fn to completion - abandoning an execution
// halfway would poison the entry for every other tenant - so only the
// waiting side observes cancellation. A nil ctx never cancels.
func (c *Cache[V]) DoContext(ctx context.Context, k Key, fn func() V) (V, error) {
	if c == nil {
		return fn(), nil
	}
	// The job probe (when the scheduler installed one) attributes this
	// call's hit/miss/wait to its campaign job. Every Probe method is
	// nil-safe, so uninstrumented callers pay one context lookup only.
	probe := trace.ProbeFrom(ctx)
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	sh := &c.shards[k.hash()&(shardCount-1)]
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, err
			}
		}
		sh.mu.Lock()
		e, ok := sh.entries[k]
		if ok {
			sh.mu.Unlock()
			select {
			case <-e.done:
			default:
				c.waits.Add(1)
				probe.InflightWait()
				c.count("mixpbench_runcache_inflight_waits_total", k)
				select {
				case <-e.done:
				case <-ctxDone:
					var zero V
					return zero, ctx.Err()
				}
			}
			if e.panicked {
				// The leader died; take over (and most likely reproduce
				// its panic under this caller's own recovery).
				continue
			}
			c.hits.Add(1)
			probe.CacheHit()
			c.count("mixpbench_runcache_hits_total", k)
			if tel := c.opts.Telemetry; tel != nil {
				tel.Emit("runcache_hit", map[string]any{
					"bench":     k.Bench,
					"config":    k.Config,
					"semantics": k.Semantics.String(),
				})
			}
			return e.val, nil
		}
		e = &entry[V]{done: make(chan struct{})}
		sh.entries[k] = e
		sh.mu.Unlock()

		completed := false
		defer func() {
			if !completed {
				// fn (or the tier) panicked: discard the entry and release
				// any waiters into their own attempts before the panic
				// unwinds.
				e.panicked = true
				sh.mu.Lock()
				delete(sh.entries, k)
				sh.mu.Unlock()
				close(e.done)
			}
		}()
		if tier := c.opts.Tier; tier != nil {
			if v, ok := tier.Load(k); ok {
				// Served by the durable tier: to every caller this is
				// indistinguishable from having executed fn (same value,
				// same charging), it just cost a disk read instead.
				e.val = v
				completed = true
				close(e.done)
				c.entries.Add(1)
				c.hits.Add(1)
				c.tierHits.Add(1)
				probe.CacheHit()
				c.count("mixpbench_runcache_hits_total", k)
				c.count("mixpbench_runcache_tier_hits_total", k)
				return e.val, nil
			}
			c.tierMisses.Add(1)
		}
		e.val = fn()
		completed = true
		close(e.done)
		c.entries.Add(1)
		c.misses.Add(1)
		probe.CacheMiss()
		c.count("mixpbench_runcache_misses_total", k)
		if tier := c.opts.Tier; tier != nil {
			tier.Store(k, e.val)
			c.tierWrites.Add(1)
		}
		return e.val, nil
	}
}

// count bumps one bench-labelled cache counter.
func (c *Cache[V]) count(name string, k Key) {
	if tel := c.opts.Telemetry; tel != nil {
		tel.Counter(name, "bench", k.Bench).Inc()
	}
}

// Stats returns the cache's traffic counters. Hits+Misses equals the
// number of completed Do calls; Misses equals the number of distinct keys
// executed, so both are deterministic for a given campaign. InflightWaits
// is scheduling-dependent (see Stats).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Entries:       c.entries.Load(),
		TierHits:      c.tierHits.Load(),
		TierMisses:    c.tierMisses.Load(),
		TierWrites:    c.tierWrites.Load(),
	}
}

// String summarises the cache for logs.
func (c *Cache[V]) String() string {
	s := c.Stats()
	return "runcache{entries: " + strconv.FormatUint(s.Entries, 10) +
		", hits: " + strconv.FormatUint(s.Hits, 10) +
		", misses: " + strconv.FormatUint(s.Misses, 10) + "}"
}

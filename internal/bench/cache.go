package bench

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mp"
	"repro/internal/runcache"
	"repro/internal/telemetry"
)

// Cache is the run cache: a process-wide memo store for deterministic
// benchmark executions, shared across runners and campaign jobs.
// Construct with NewCache (or NewStoredCache) and install on each
// Runner's Cache field; see Runner.Cache for the determinism contract.
//
// Every Result it stores is shared, never copied: each hit hands out the
// entry's own Output.Values and Profile slices, and an execution the
// index shares reuses them too, so they are read-only for everyone.
// Runner.RunShared returns them as they are; the other Runner methods
// copy them before returning (see Runner.Cache).
//
// It has two levels. The embedded runcache.Cache memoises whole Results
// by the full purity key (bench, seed, semantics, machine fingerprint,
// configuration), with singleflight and an optional durable tier. Behind
// it, consulted only on a full-key miss, an execution index shares one
// execution among configurations that differ only in sites the
// execution never read. A port sees its configuration only through the
// mp.Tape (the puritycheck analyzer proves it), and the tape records
// which sites' precision a run observed (mp.Tape.ReadSet): a run that
// read the set R repeats step for step under any configuration that
// agrees with it on R, and sites it never read accrue no profile. So the
// index keys each execution's output, cost, and profile by the
// configuration restricted to its read set, and serves them exactly to
// every configuration with the same restriction; the modelled time,
// energy, and jittered measurement are still derived from the full
// configuration. A read set that varies with the configuration simply
// gets its own entries, and the seed is part of the key.
//
// The index lives here, not in the process-wide compiler, because a run
// cache is shared only by runners that agree on what a benchmark name
// means, while the compiler also sees unrelated programs that merely
// share a name.
type Cache struct {
	*runcache.Cache[Result]

	mu     sync.RWMutex
	groups map[execKey]*execGroup
	shared atomic.Uint64
}

// execKey identifies the executions the index may share: the run-cache
// key without the configuration, plus the program's site count (the
// length of every read set and profile).
type execKey struct {
	bench string
	seed  int64
	sem   runcache.Semantics
	model uint64
	sites int
}

// execGroup is the index for one execKey: the distinct read sets seen,
// in first-seen order, and every execution keyed by its configuration
// restricted to its read set (see restrictKey).
type execGroup struct {
	reads [][]bool
	runs  map[string]execution
}

// execution is the configuration-independent part of a Result. Its
// slices are shared with the run-cache entries built from it and, like
// them, are never mutated.
type execution struct {
	output  Output
	cost    mp.Cost
	profile []mp.VarProfile
}

// NewCache returns an empty run cache. tel, when non-nil, receives the
// cache's hit/miss/inflight-wait counters and runcache_hit events; because
// the hit/miss split between concurrent workers depends on real
// scheduling, keep this recorder separate from any deterministic campaign
// telemetry (see the runcache package comment).
func NewCache(tel *telemetry.Recorder) *Cache {
	return newCache(runcache.Options[Result]{Telemetry: tel})
}

func newCache(opts runcache.Options[Result]) *Cache {
	return &Cache{Cache: runcache.New(opts), groups: make(map[execKey]*execGroup)}
}

// SharedExecutions counts the run-cache misses the execution index
// served without executing. Like the run cache's own counters it can
// depend on scheduling - two workers may execute configurations that
// share a restriction at the same moment - so keep it out of
// deterministic snapshots.
func (c *Cache) SharedExecutions() uint64 { return c.shared.Load() }

// lookup returns the indexed execution whose read set cfg agrees with
// (c may be nil: no index, every configuration executes).
func (c *Cache) lookup(k execKey, cfg Config) (execution, bool) {
	if c == nil {
		return execution{}, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	g := c.groups[k]
	if g == nil {
		return execution{}, false
	}
	var buf []byte
	for _, reads := range g.reads {
		buf = restrictKey(buf[:0], cfg, reads)
		if ex, ok := g.runs[string(buf)]; ok {
			c.shared.Add(1)
			return ex, true
		}
	}
	return execution{}, false
}

// record indexes a fresh execution of cfg that read the sites marked in
// reads. Two workers executing the same restriction concurrently
// produce identical executions, so the first to record wins.
func (c *Cache) record(k execKey, cfg Config, reads []bool, ex execution) {
	if c == nil {
		return
	}
	key := string(restrictKey(nil, cfg, reads))
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[k]
	if g == nil {
		g = &execGroup{runs: make(map[string]execution)}
		c.groups[k] = g
	}
	if _, ok := g.runs[key]; ok {
		return
	}
	g.runs[key] = ex
	if !slices.ContainsFunc(g.reads, func(r []bool) bool { return slices.Equal(r, reads) }) {
		g.reads = append(g.reads, reads)
	}
}

// restrictKey appends cfg restricted to the read set to dst: the
// Config.Key spelling of each read site (sites past the end of cfg are
// F64, as a fresh tape leaves them) and '-' for each unread one. The
// '-' makes the read set part of the spelling, so restrictions over
// different read sets never collide; ParseKey rejects it, so a
// restricted key can never pass for a configuration key.
func restrictKey(dst []byte, cfg Config, reads []bool) []byte {
	for i, read := range reads {
		switch {
		case !read:
			dst = append(dst, '-')
		case i < len(cfg):
			dst = appendPrec(dst, cfg[i])
		default:
			dst = appendPrec(dst, mp.F64)
		}
	}
	return dst
}

// cloneResult deep-copies a Result's slice fields, giving a caller of the
// copying Runner methods a Result it owns.
func cloneResult(r Result) Result {
	if r.Output.Values != nil {
		out := make([]float64, len(r.Output.Values))
		copy(out, r.Output.Values)
		r.Output.Values = out
	}
	if r.Profile != nil {
		prof := make([]mp.VarProfile, len(r.Profile))
		copy(prof, r.Profile)
		r.Profile = prof
	}
	return r
}

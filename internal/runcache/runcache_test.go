package runcache

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func key(bench, config string) Key {
	return Key{Bench: bench, Seed: 42, Semantics: Source, Model: 7, Config: config}
}

// TestDoMemoises checks the basic contract: the first call for a key
// executes, every later call is served from the table.
func TestDoMemoises(t *testing.T) {
	c := New(Options[int]{})
	calls := 0
	fn := func() int { calls++; return 99 }
	for i := 0; i < 5; i++ {
		if got := c.Do(key("hydro-1d", "01"), fn); got != 99 {
			t.Fatalf("Do = %d, want 99", got)
		}
	}
	if calls != 1 {
		t.Fatalf("fn executed %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 4 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 4 hits, 1 entry", s)
	}
}

// TestKeyComponentsSeparate checks that every key component separates
// entries: no component can be dropped without cross-serving results.
func TestKeyComponentsSeparate(t *testing.T) {
	c := New(Options[int]{})
	base := Key{Bench: "eos", Seed: 1, Semantics: Source, Model: 3, Config: "01"}
	variants := []Key{
		base,
		{Bench: "iccg", Seed: 1, Semantics: Source, Model: 3, Config: "01"},
		{Bench: "eos", Seed: 2, Semantics: Source, Model: 3, Config: "01"},
		{Bench: "eos", Seed: 1, Semantics: IR, Model: 3, Config: "01"},
		{Bench: "eos", Seed: 1, Semantics: Source, Model: 4, Config: "01"},
		{Bench: "eos", Seed: 1, Semantics: Source, Model: 3, Config: "10"},
	}
	for i, k := range variants {
		i := i
		got := c.Do(k, func() int { return i })
		if got != i {
			t.Fatalf("variant %d served %d: key %+v collided", i, got, k)
		}
	}
	if s := c.Stats(); s.Misses != uint64(len(variants)) {
		t.Fatalf("misses = %d, want %d distinct executions", s.Misses, len(variants))
	}
}

// TestNilCacheExecutes checks that a nil *Cache degrades to calling fn,
// so callers need no nil guards.
func TestNilCacheExecutes(t *testing.T) {
	var c *Cache[int]
	calls := 0
	for i := 0; i < 2; i++ {
		if got := c.Do(key("x", ""), func() int { calls++; return 7 }); got != 7 {
			t.Fatalf("nil cache Do = %d, want 7", got)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache executed fn %d times, want every call", calls)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

// TestSingleflight checks in-flight deduplication: many goroutines
// requesting one key while its execution is still running must yield
// exactly one execution, with the waiters blocking for the leader's
// result rather than executing themselves.
func TestSingleflight(t *testing.T) {
	c := New(Options[int]{})
	const waiters = 8
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(key("lavaMD", "111"), func() int {
			calls.Add(1)
			close(started)
			<-release
			return 5
		})
	}()
	<-started

	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Do(key("lavaMD", "111"), func() int {
				calls.Add(1)
				return -1 // must never run
			})
		}(i)
	}
	// Every waiter must end up blocked on the in-flight entry before the
	// leader is released.
	for c.Stats().InflightWaits < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times under contention, want 1", n)
	}
	for i, r := range results {
		if r != 5 {
			t.Fatalf("waiter %d got %d, want the leader's 5", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != waiters || s.InflightWaits != waiters {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, %d inflight waits", s, waiters, waiters)
	}
}

// TestLeaderPanicRetries checks the recovery path: a leader that panics
// discards its entry, waiters retry under their own call frames, and the
// key stays usable afterwards.
func TestLeaderPanicRetries(t *testing.T) {
	c := New(Options[int]{})
	k := key("srad", "1")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leader's panic did not propagate")
			}
		}()
		c.Do(k, func() int { panic("injected") })
	}()

	// The poisoned entry must be gone: the next call leads a fresh
	// execution rather than deadlocking or serving garbage.
	done := make(chan int, 1)
	go func() { done <- c.Do(k, func() int { return 11 }) }()
	select {
	case got := <-done:
		if got != 11 {
			t.Fatalf("post-panic Do = %d, want 11", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-panic Do deadlocked")
	}
	if s := c.Stats(); s.Entries != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want the panicked attempt uncounted", s)
	}
}

// sliceTier is a one-value Tier over []float64, for the sharing test.
type sliceTier struct{ v []float64 }

func (t sliceTier) Load(Key) ([]float64, bool) { return t.v, t.v != nil }
func (sliceTier) Store(Key, []float64)         {}

// TestHitSharesStoredValue checks the sharing rule: every hit returns the
// stored value itself, not a copy - the same backing array the leading
// call returned, whether the leader executed or loaded from the tier.
func TestHitSharesStoredValue(t *testing.T) {
	c := New(Options[[]float64]{})
	k := key("cfd", "0011")
	first := c.Do(k, func() []float64 { return []float64{1, 2, 3} })
	second := c.Do(k, func() []float64 { t.Fatal("re-executed"); return nil })
	if &second[0] != &first[0] {
		t.Fatal("hit returned a copy, want the stored value")
	}

	tiered := New(Options[[]float64]{Tier: sliceTier{v: []float64{4, 5}}})
	loaded := tiered.Do(k, func() []float64 { t.Fatal("executed past the tier"); return nil })
	again := tiered.Do(k, func() []float64 { t.Fatal("re-executed"); return nil })
	if &again[0] != &loaded[0] {
		t.Fatal("hit after a tier load returned a copy, want the stored value")
	}
}

// TestTelemetryCounters checks the cache's own instrumentation: the
// bench-labelled hit/miss/inflight-wait counters and the runcache_hit
// event stream.
func TestTelemetryCounters(t *testing.T) {
	sink := telemetry.NewMemorySink()
	tel := telemetry.New(sink)
	c := New(Options[int]{Telemetry: tel})

	c.Do(key("eos", "01"), func() int { return 1 })     // miss
	c.Do(key("eos", "01"), func() int { return 1 })     // hit
	c.Do(key("eos", "01"), func() int { return 1 })     // hit
	c.Do(key("tri-diag", "1"), func() int { return 2 }) // miss

	var buf strings.Builder
	if err := tel.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mixpbench_runcache_hits_total{bench="eos"} 2`,
		`mixpbench_runcache_misses_total{bench="eos"} 1`,
		`mixpbench_runcache_misses_total{bench="tri-diag"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	hits := 0
	for _, e := range sink.Events() {
		if e.Name != "runcache_hit" {
			continue
		}
		hits++
		if e.Fields["bench"] != "eos" || e.Fields["config"] != "01" || e.Fields["semantics"] != "source" {
			t.Errorf("runcache_hit fields = %v", e.Fields)
		}
	}
	if hits != 2 {
		t.Errorf("runcache_hit events = %d, want 2", hits)
	}
}

// TestStatsDeterministicTotals checks the documented invariant campaign
// tests rely on: Misses equals distinct keys and Hits+Misses equals
// completed calls, regardless of the interleaving.
func TestStatsDeterministicTotals(t *testing.T) {
	c := New(Options[int]{})
	const (
		goroutines = 8
		keys       = 5
		rounds     = 20
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					c.Do(key("planckian", strings.Repeat("1", i+1)), func() int { return i })
				}
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != keys {
		t.Fatalf("misses = %d, want %d (one per distinct key)", s.Misses, keys)
	}
	if s.Hits+s.Misses != goroutines*keys*rounds {
		t.Fatalf("hits+misses = %d, want %d completed calls", s.Hits+s.Misses, goroutines*keys*rounds)
	}
}

package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/telemetry"
)

// cacheCampaign runs the telemetry campaign with the given worker count,
// run cache, and compiler (nil: the process-wide shared one), returning
// the results, the metrics exposition, and the event stream.
func cacheCampaign(t *testing.T, workers int, cache *bench.Cache, comp *compile.Compiler) ([]JobResult, string, []telemetry.Event) {
	t.Helper()
	mem := telemetry.NewMemorySink()
	tel := telemetry.New(mem)
	results := Scheduler{Workers: workers, Telemetry: tel, Cache: cache, Compiler: comp}.Run(telemetryJobs(t))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return results, buf.String(), mem.Events()
}

// TestSchedulerCacheDeterministic locks in the shared cache's determinism
// contract: a campaign with the cache produces byte-identical reports,
// metric snapshots, and event streams to one without it, under any worker
// count. The uncached baseline runs on a campaign-private compiler, which
// proves every proposal executed on the compiler and that later runs
// recycled earlier runs' tapes. Run under -race with Workers > 1 it also
// locks in the cache's and the compiler's data-race-free claims.
func TestSchedulerCacheDeterministic(t *testing.T) {
	var firstCachedMetrics string
	for _, workers := range []int{1, 2, 8} {
		comp := compile.New(nil)
		baseResults, baseMetrics, baseEvents := cacheCampaign(t, workers, nil, comp)
		if s := comp.Stats(); s.Kernels == 0 || s.Misses == 0 {
			t.Fatalf("workers=%d: campaign never ran on the compiler: %+v", workers, s)
		} else if s.Hits == 0 {
			t.Errorf("workers=%d: no run recycled a tape: %+v", workers, s)
		}
		results, metrics, events := cacheCampaign(t, workers, bench.NewCache(nil), nil)
		if !reflect.DeepEqual(results, baseResults) {
			t.Errorf("workers=%d: cached campaign reports diverge from the uncached baseline", workers)
		}
		if metrics != baseMetrics {
			t.Errorf("workers=%d: cached metric snapshot diverges:\n--- uncached ---\n%s\n--- cached ---\n%s",
				workers, baseMetrics, metrics)
		}
		// The event stream is identical payload for payload (campaign_start
		// names the worker count, so streams are compared per count).
		if !reflect.DeepEqual(events, baseEvents) {
			t.Errorf("workers=%d: cached event stream diverges (%d vs %d events)",
				workers, len(events), len(baseEvents))
		}
		// And the cached campaign keeps the existing cross-worker-count
		// snapshot invariant.
		if firstCachedMetrics == "" {
			firstCachedMetrics = metrics
		} else if metrics != firstCachedMetrics {
			t.Errorf("workers=%d: cached metric snapshot depends on worker count", workers)
		}
	}
}

// TestSchedulerCacheCounters checks the cache's own instrumentation over a
// real campaign: hit/miss totals are campaign-determined (misses = distinct
// executions, hits+misses = total run calls) and therefore identical under
// any worker count, the bench-labelled counters reach the cache's recorder,
// and hits emit runcache_hit events.
func TestSchedulerCacheCounters(t *testing.T) {
	type totals struct{ hits, misses uint64 }
	runWith := func(workers int) (totals, *telemetry.MemorySink) {
		mem := telemetry.NewMemorySink()
		cache := bench.NewCache(telemetry.New(mem))
		results := Scheduler{Workers: workers, Cache: cache}.Run(telemetryJobs(t))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
		}
		s := cache.Stats()
		if s.Misses == 0 || s.Hits == 0 {
			t.Fatalf("workers=%d: cache saw no traffic: %+v", workers, s)
		}
		if s.Entries != s.Misses {
			t.Fatalf("workers=%d: entries (%d) != misses (%d)", workers, s.Entries, s.Misses)
		}
		return totals{s.Hits, s.Misses}, mem
	}

	t1, mem := runWith(1)
	t8, _ := runWith(8)
	if t1 != t8 {
		t.Errorf("hit/miss totals depend on worker count: 1 worker %+v, 8 workers %+v", t1, t8)
	}

	// The cache's recorder carries the bench-labelled counters and the
	// per-hit events.
	cacheTel := telemetry.New(nil)
	cache := bench.NewCache(cacheTel)
	Scheduler{Workers: 2, Cache: cache}.Run(telemetryJobs(t))
	var buf bytes.Buffer
	if err := cacheTel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mixpbench_runcache_hits_total{bench="K-means"}`,
		`mixpbench_runcache_misses_total{bench="K-means"}`,
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("cache metrics missing %q in:\n%s", want, text)
		}
	}
	hits := 0
	for _, e := range mem.Events() {
		if e.Name == "runcache_hit" {
			hits++
			if e.Fields["bench"] != "K-means" {
				t.Errorf("runcache_hit fields = %v", e.Fields)
			}
		}
	}
	if hits == 0 {
		t.Error("no runcache_hit events emitted")
	}
}

// TestRunCampaignCacheDefault checks RunCampaign's wiring: caching is on
// by default, NoCache turns it off, and reports are identical either way.
func TestRunCampaignCacheDefault(t *testing.T) {
	specs, err := ParseConfig(kmeansYAML)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunCampaign(specs, CampaignOptions{Workers: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cache := bench.NewCache(nil)
	explicit, err := RunCampaign(specs, CampaignOptions{Workers: 2, Seed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := RunCampaign(specs, CampaignOptions{Workers: 2, Seed: 42, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, uncached) || !reflect.DeepEqual(explicit, uncached) {
		t.Error("campaign reports depend on the cache setting")
	}
	if s := cache.Stats(); s.Misses == 0 {
		t.Error("explicitly provided cache was not used")
	}
}

package harness

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/store"
)

// TestSchedulerStoreInvariance locks the tentpole's determinism
// contract for the persistent tier: a campaign backed by the result
// store - cold (every execution lands in the store) or warm (every
// execution is served from disk without running) - produces reports,
// metric snapshots, and event streams byte-identical to a storeless
// campaign, at any worker count. Store hits still charge the simulated
// build and run time, so nothing observable moves; only which
// executions physically happen changes. Run under -race, it also
// locks the store tier's data-race-free claim.
func TestSchedulerStoreInvariance(t *testing.T) {
	fp := bench.StoreFingerprint(bench.NewRunner(42).ModelFingerprint())
	for _, workers := range []int{1, 2, 4} {
		baseResults, baseMetrics, baseEvents := cacheCampaign(t, workers, nil, nil)

		dir := filepath.Join(t.TempDir(), "results")
		runStored := func(label string) *bench.Cache {
			st, err := store.Open(dir, store.Options{Fingerprint: fp})
			if err != nil {
				t.Fatalf("workers=%d %s: Open: %v", workers, label, err)
			}
			defer func() {
				if err := st.Close(); err != nil {
					t.Fatalf("workers=%d %s: Close: %v", workers, label, err)
				}
			}()
			cache := bench.NewStoredCache(nil, st)
			results, metrics, events := cacheCampaign(t, workers, cache, nil)
			if !reflect.DeepEqual(results, baseResults) {
				t.Errorf("workers=%d: %s-store reports diverge from the storeless baseline", workers, label)
			}
			if metrics != baseMetrics {
				t.Errorf("workers=%d: %s-store metric snapshot diverges:\n--- storeless ---\n%s\n--- store ---\n%s",
					workers, label, baseMetrics, metrics)
			}
			if !reflect.DeepEqual(events, baseEvents) {
				t.Errorf("workers=%d: %s-store event stream diverges (%d vs %d events)",
					workers, label, len(events), len(baseEvents))
			}
			return cache
		}

		cold := runStored("cold")
		if s := cold.Stats(); s.TierHits != 0 || s.TierWrites == 0 {
			t.Errorf("workers=%d: cold run store traffic: %+v", workers, s)
		}
		warm := runStored("warm")
		if s := warm.Stats(); s.Misses != 0 || s.TierHits == 0 {
			t.Errorf("workers=%d: warm run executed instead of hitting the store: %+v", workers, s)
		}
	}
}

package search

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/mp"
)

// TestEvaluatorCacheTransparent checks the search layer's view of the
// shared run cache: for every strategy, an analysis whose runner shares a
// warm campaign cache produces the same outcome, EV count, spent seconds,
// and per-configuration trace as one executing everything itself. The
// cache is pre-warmed by a first analysis, so the second run of each pair
// is served almost entirely from the table.
//
// The evaluator reads every run through Runner.RunShared, so the cache
// hands it the stored Results themselves. After both analyses, the
// reference and every valid configuration they evaluated, served once
// more from the cache, must still encode to the bytes of a cold
// execution: a strategy or a reader that wrote into a borrowed output or
// profile slice would have corrupted the stored entry and fails here.
func TestEvaluatorCacheTransparent(t *testing.T) {
	b := kernels.NewHydro1D()
	ladder3, err := mp.ParseLadder("f64,f32,bf16")
	if err != nil {
		t.Fatal(err)
	}
	type analysisCase struct {
		name      string
		algorithm string
		ladder    mp.Ladder
	}
	var cases []analysisCase
	for _, name := range append(append([]string{}, AlgorithmNames...), ExtensionNames...) {
		cases = append(cases, analysisCase{name, name, mp.DefaultLadder()})
	}
	cases = append(cases, analysisCase{"DD-ladder3", "DD", ladder3})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			algo, err := ByName(tc.algorithm, 1)
			if err != nil {
				t.Fatal(err)
			}
			analyse := func(cache *bench.Cache) (Outcome, []TraceEntry, float64) {
				runner := bench.NewRunner(42)
				runner.Cache = cache
				e := NewEvaluator(NewSpaceWithLadder(b.Graph(), algo.Mode(), tc.ladder), runner, b, 1e-8)
				e.SetTrace(true)
				out := algo.Search(e)
				return out, e.Trace(), e.Spent()
			}

			cache := bench.NewCache(nil)
			analyse(cache) // warm: every later run hits the table
			warmStats := cache.Stats()

			coldOut, coldTrace, coldSpent := analyse(nil)
			hotOut, hotTrace, hotSpent := analyse(cache)

			if !reflect.DeepEqual(coldOut, hotOut) {
				t.Errorf("outcome differs with a warm shared cache:\ncold %+v\nhot  %+v", coldOut, hotOut)
			}
			if coldSpent != hotSpent {
				t.Errorf("budget accounting differs: cold spent %g, hot spent %g", coldSpent, hotSpent)
			}
			if !reflect.DeepEqual(coldTrace, hotTrace) {
				t.Error("evaluation trace differs with a warm shared cache")
			}
			if s := cache.Stats(); s.Misses != warmStats.Misses {
				t.Errorf("warm re-analysis executed %d new configurations, want 0", s.Misses-warmStats.Misses)
			}

			shared := bench.NewRunner(42)
			shared.Cache = cache
			cold := bench.NewRunner(42)
			check := func(key string, cfg bench.Config) {
				served, err := shared.RunShared(nil, b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := bench.EncodeResult(nil, served), bench.EncodeResult(nil, cold.Run(b, cfg)); !bytes.Equal(got, want) {
					t.Errorf("config %q: the shared cache serves a Result that differs from a cold execution", key)
				}
			}
			check("reference", nil)
			for _, te := range hotTrace {
				if !te.Result.Valid {
					continue
				}
				cfg, err := bench.ParseKey(te.Config)
				if err != nil {
					t.Fatal(err)
				}
				check(te.Config, cfg)
			}
			if s := cache.Stats(); s.Misses != warmStats.Misses {
				t.Errorf("serving the trace again executed %d configurations, want 0", s.Misses-warmStats.Misses)
			}
		})
	}
}

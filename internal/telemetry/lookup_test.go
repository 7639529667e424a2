package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestLookupAllocatesNothing locks the hot path: once a series exists,
// asking for it again renders nothing and allocates nothing, with one
// label pair (the evaluator's and runner's bench label) and with two.
func TestLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	name := "blackscholes"
	r.Counter("runs_total", "bench", name, "kind", "config")
	r.Gauge("spent_seconds", "bench", name)
	r.Histogram("model_seconds", SecondsBuckets, "bench", name)
	r.Counter("evals_total", "bench", name)
	r.Counter("jobs_total")
	cases := []struct {
		label string
		fn    func()
	}{
		{"counter, no labels", func() { r.Counter("jobs_total").Inc() }},
		{"counter, one pair", func() { r.Counter("evals_total", "bench", name).Inc() }},
		{"counter, two pairs", func() { r.Counter("runs_total", "bench", name, "kind", "config").Inc() }},
		{"gauge, one pair", func() { r.Gauge("spent_seconds", "bench", name).Set(1) }},
		{"histogram, one pair", func() { r.Histogram("model_seconds", SecondsBuckets, "bench", name).Observe(1) }},
	}
	rec := &Recorder{registry: r}
	cases = append(cases, struct {
		label string
		fn    func()
	}{"recorder counter, two pairs", func() { rec.Counter("runs_total", "bench", name, "kind", "config").Inc() }})
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocations per lookup of an existing series, want 0", c.label, n)
		}
	}
}

// TestLookupPairOrder checks that the order a caller lists label pairs
// in never splits a series: both orders resolve to the one series the
// sorted label block names, whichever order registered it.
func TestLookupPairOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("runs_total", "bench", "eos", "kind", "reference")
	b := r.Counter("runs_total", "kind", "reference", "bench", "eos")
	if a != b {
		t.Fatal("label pairs in two orders resolved to two series")
	}
	a.Inc()
	b.Inc()
	if again := r.Counter("runs_total", "kind", "reference", "bench", "eos"); again != a {
		t.Fatal("a repeated lookup in the second order resolved to another series")
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE runs_total counter\nruns_total{bench=\"eos\",kind=\"reference\"} 2\n"
	if text.String() != want {
		t.Errorf("exposition:\n%s\nwant\n%s", text.String(), want)
	}
}

// TestLookupSeparatorBytes checks that no byte inside a name, key or
// value can make two different series share a lookup: for every byte
// value it registers tuples that a plain concatenation with that byte as
// the separator would confuse, and requires one series per tuple.
func TestLookupSeparatorBytes(t *testing.T) {
	for c := 0; c < 256; c++ {
		sep := string([]byte{byte(c)})
		tuples := [][]string{
			{"m", "k", "a" + sep + "b"},
			{"m", "k" + sep + "a", "b"},
			{"m" + sep + "k", "a", "b"},
			{"m", "k", "a", "b" + sep + "c", "d"},
			{"m", "k", "a" + sep + "b", "c", "d"},
			{"m", "k", "a" + sep + "b" + sep + "c", "d", ""},
			{"m", "k", sep},
			{"m", "k", ""},
			{"m"},
			{"m" + sep},
		}
		r := NewRegistry()
		seen := make(map[*Counter]int)
		for i, tu := range tuples {
			for j := 0; j <= i; j++ { // tuple i is incremented i+1 times
				r.Counter(tu[0], tu[1:]...).Inc()
			}
			seen[r.Counter(tu[0], tu[1:]...)] = i
		}
		if len(seen) != len(tuples) {
			t.Errorf("byte %#x: %d tuples resolved to %d series", c, len(tuples), len(seen))
			continue
		}
		for ctr, i := range seen {
			if got := ctr.Value(); got != float64(i+1) {
				t.Errorf("byte %#x: tuple %q counted %g, want %d", c, tuples[i], got, i+1)
			}
		}
	}
}

// TestLookupKindMismatchPanics checks that a series already looked up
// (so answered from the lookup index) still refuses another kind, and
// so does a series that arrived by Merge, under its rendered block.
func TestLookupKindMismatchPanics(t *testing.T) {
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", label)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("c", "bench", "x").Inc()
	r.Counter("c", "bench", "x").Inc()
	mustPanic("gauge over a counter", func() { r.Gauge("c", "bench", "x") })
	mustPanic("histogram over a counter", func() { r.Histogram("c", SecondsBuckets, "bench", "x") })
	r.Histogram("h", SecondsBuckets).Observe(1)
	mustPanic("counter over a histogram", func() { r.Counter("h") })

	merged := NewRegistry()
	merged.Merge(r)
	mustPanic("gauge over a merged counter", func() { merged.Gauge("c", "bench", "x") })
	mustPanic("odd label list", func() { r.Counter("c", "bench") })
}

// TestRegistryGolden pins the exposition and snapshot of a fixed call
// sequence (labels in both orders, quoting, histograms, Merge and
// AddSnapshot) to testdata/registry.golden, written by the registry
// before lookups skipped rendering. Regenerate, only for an intended
// format change, with MIXP_UPDATE_GOLDEN=1 go test ./internal/telemetry
// -run TestRegistryGolden.
func TestRegistryGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("mixpbench_bench_runs_total", "bench", "eos", "kind", "reference").Inc()
	r.Counter("mixpbench_bench_runs_total", "kind", "config", "bench", "eos").Add(3)
	r.Counter("mixpbench_bench_runs_total", "bench", "eos", "kind", "config").Inc()
	r.Counter("plain_total").Add(0.1)
	r.Counter("plain_total").Add(0.2)
	r.Gauge("mixpbench_search_budget_fraction", "bench", "iccg").Set(1.0 / 3)
	r.Gauge("mixpbench_search_budget_fraction", "bench", "cfd").SetMax(1e300)
	r.Gauge("quoted", "v", "a\"b\\c\nd\x00e\xff{},=", "a", "z").Set(-2)
	h := r.Histogram("mixpbench_search_speedup", SpeedupBuckets, "bench", "eos")
	for _, v := range []float64{0.4, 1, 1.05, 2, 7, math.NaN()} {
		h.Observe(v)
	}
	r.Histogram("mixpbench_search_speedup", SpeedupBuckets, "bench", "eos").Observe(1.2)

	job := NewRegistry()
	job.Counter("mixpbench_bench_runs_total", "bench", "eos", "kind", "config").Add(5)
	job.Counter("merged_only_total", "bench", "srad").Inc()
	job.Histogram("mixpbench_search_speedup", SpeedupBuckets, "bench", "eos").Observe(1.5)
	r.Merge(job)

	snap := NewRegistry()
	snap.Gauge("restored", "bench", "hotspot").Set(0.75)
	snap.Counter("merged_only_total", "bench", "srad").Add(2)
	r.AddSnapshot(snap.Snapshot())
	r.Counter("merged_only_total", "bench", "srad").Inc()

	var got bytes.Buffer
	if err := r.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	got.WriteString("--- snapshot ---\n")
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got.Write(b)
	got.WriteByte('\n')

	path := filepath.Join("testdata", "registry.golden")
	if os.Getenv("MIXP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("registry output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}

// TestConcurrentLookups races lookups of existing series against
// registrations of new ones, Merge and WriteText; run it under -race.
func TestConcurrentLookups(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("shared_total", "bench", "eos", "kind", "config").Inc()
				r.Counter("shared_total", "kind", "config", "bench", "eos").Inc()
				r.Gauge("own", "worker", fmt.Sprint(w), "i", fmt.Sprint(i%7)).Set(float64(i))
				r.Histogram("h", SecondsBuckets, "bench", "eos").Observe(float64(i))
				if i%25 == 0 {
					dst := NewRegistry()
					dst.Merge(r)
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total", "bench", "eos", "kind", "config").Value(); got != 800 {
		t.Errorf("shared counter = %g, want 800", got)
	}
	if got := r.Histogram("h", SecondsBuckets, "bench", "eos").Count(); got != 400 {
		t.Errorf("histogram count = %d, want 400", got)
	}
}

package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: an
// in-process workload runs its set-up and measuring children by
// re-executing os.Executable() with -child first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// buildMixpd builds the service binary the service workload drives.
func buildMixpd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mixpd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/mixpd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("building mixpd: %v", err)
	}
	return bin
}

// TestSmoke runs every workload at its smallest size - a warm-up and one
// timed campaign in process, two generation-1 seeds and four timed
// submissions against mixpd - and checks that every metric BENCHMARK.json
// names is emitted with its unit, that the seed-42 digests match the pins,
// and that nothing failed. The traced variant runs on one in-process
// workload and on the service.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	base := options{seed: 42, mixpd: buildMixpd(t), setups: 1, benchtime: "1x", readSeeds: 2, minSubmissions: 4}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "kernel-study" && w.name != "service-store" {
				continue
			}
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if raceEnabled && w.name == "app-study" {
					t.Skip("app-study runs kernel-study's child code on campaigns that take ~12 s each under the race detector")
				}
				o := base
				o.trace = traced
				smoke(t, spec, w, o)
			})
		}
	}
}

func smoke(t *testing.T, spec *benchSpec, w workload, o options) {
	res, err := runWorkload(context.Background(), spec, w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct %t, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	want := spec.metrics(o.trace)
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, ms := range want {
		got, ok := res.Metrics[ms.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", ms.Name)
		case got.Unit != ms.Unit:
			t.Errorf("metric %s in %q, want %q", ms.Name, got.Unit, ms.Unit)
		case !o.trace && !(got.Value > 0):
			t.Errorf("end-to-end metric %s = %g, want > 0", ms.Name, got.Value)
		}
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	switch {
	case o.trace && w.inProcess():
		if sum := v("bench.exec_share") + v("search.self_share") + v("harness.idle_share"); math.Abs(sum-1) > 0.02 {
			t.Errorf("exec, search and idle shares sum to %g, want 1", sum)
		}
		for _, name := range []string{"bench.exec_calls", "runcache.hits", "compile.kernel_misses", "ladder.exec_predicted_ratio"} {
			if !(v(name) > 0) {
				t.Errorf("%s = %g, want > 0", name, v(name))
			}
		}
	case o.trace:
		if !(v("store.get_hits") > 0) {
			t.Errorf("no read after the restart was served by the store")
		}
	}
}

// TestServiceDigestIsInProcessDigest checks that the service pins and the
// in-process digests digest the same bytes: the service campaign run
// through harness.RunCampaign with one worker encodes to exactly what
// mixpd's /results served for that seed.
func TestServiceDigestIsInProcessDigest(t *testing.T) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		t.Fatal(err)
	}
	r := newServiceRun(options{seed: p.Seed, readSeeds: 1})
	specs, res, err := runCampaign(serviceCampaign, r.reads[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := checkResults(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	if out.digest != p.ServiceReads[0] {
		t.Errorf("in-process digest %s, mixpd served %s", out.digest, p.ServiceReads[0])
	}
}

// TestStatistics pins the order statistics to the definitions README
// gives: quartiles as Python's statistics.quantiles(n=4), and the tail as
// the 11th-largest sample.
func TestStatistics(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := tail(xs); got != 10 {
		t.Errorf("tail of 10 samples = %g, want the max", got)
	}
	many := make([]float64, 200)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := tail(many); got != 190 {
		t.Errorf("tail of 200 samples = %g, want the 11th largest, 190", got)
	}
	if got := median(many); got != 100.5 {
		t.Errorf("median = %g", got)
	}
}

// TestCompare checks the regression verdicts against the bounds, for two
// separate sets and for a paired set whose runs drift together.
func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// set scales every run's time by scale and run i by drift[i], the
	// speed of the machine at the time.
	set := func(scale float64, drift []float64) *setFile {
		s := &setFile{Workloads: map[string]*workloadSet{}}
		for _, w := range workloads {
			ws := &workloadSet{Correct: true, Attempted: 3, Metrics: map[string]*summary{}}
			for _, ms := range spec.EndToEnd {
				var vs []float64
				for _, d := range drift {
					v := scale * d
					if ms.Better == "higher" {
						v = 1 / v
					}
					vs = append(vs, v)
				}
				ws.Metrics[ms.Name] = summarize(ms.Unit, vs)
			}
			s.Workloads[w.name] = ws
		}
		return s
	}
	write := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1, 1}
	drift := []float64{1, 1.6, 0.8, 1.3, 1}
	for _, c := range []struct {
		name  string
		paths []string
		ok    bool
	}{
		{"unpaired 1% change", []string{write(set(1, steady)), write(set(1.01, steady))}, true},
		{"unpaired 50% slowdown", []string{write(set(1, steady)), write(set(1.5, steady))}, false},
		{"paired 1% change under drift", []string{write(pairFile{A: set(1, drift), B: set(1.01, drift)})}, true},
		{"paired 50% slowdown under drift", []string{write(pairFile{A: set(1, drift), B: set(1.5, drift)})}, false},
	} {
		if ok, err := compareFiles(io.Discard, c.paths); err != nil || ok != c.ok {
			t.Errorf("%s: ok %t, err %v; want ok %t", c.name, ok, err, c.ok)
		}
	}
}

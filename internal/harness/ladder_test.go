package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/mp"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// ladderJobs builds the telemetry campaign over a three-rung ladder with
// the Pareto objective: the same three algorithms, each now descending to
// bfloat16 and recording a time/energy/error front.
func ladderJobs(t *testing.T) []Job {
	t.Helper()
	ladder, err := mp.ParseLadder("f64,f32,bf16")
	if err != nil {
		t.Fatal(err)
	}
	jobs := telemetryJobs(t)
	for i := range jobs {
		jobs[i].Spec.Analysis.Precisions = ladder
		jobs[i].Spec.Analysis.Objective = search.ObjectivePareto
	}
	return jobs
}

// evalLadderCampaign runs the ladder campaign with the given worker
// count, run cache, and compiler, returning the results, the metrics
// exposition, and the event stream.
func evalLadderCampaign(t *testing.T, workers int, cache *bench.Cache, comp *compile.Compiler) ([]JobResult, string, []telemetry.Event) {
	t.Helper()
	mem := telemetry.NewMemorySink()
	tel := telemetry.New(mem)
	s := Scheduler{Workers: workers, Telemetry: tel, Cache: cache, Compiler: comp}
	results := s.Run(ladderJobs(t))
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

// TestSchedulerLadderCompiledEquivalence extends the run cache's
// byte-identity contract to deep-ladder Pareto campaigns on the
// compiler's pooled tapes: a three-rung bfloat16 campaign produces
// identical reports (fronts and energies included), metric snapshots,
// and event streams with the run cache off - every proposal executes on
// a pooled tape - and on, at any worker count. Run under -race with Workers > 1 it also
// covers the shared caches under ladder keys.
func TestSchedulerLadderCompiledEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		comp := compile.New(nil)
		baseResults, baseMetrics, baseEvents := evalLadderCampaign(t, workers, nil, comp)
		if s := comp.Stats(); s.Kernels == 0 || s.Misses == 0 {
			t.Fatalf("workers=%d: ladder campaign never ran on a pooled tape: %+v", workers, s)
		}

		for _, r := range baseResults {
			if r.Report.Precisions != "f64,f32,bf16" {
				t.Fatalf("workers=%d: report precisions = %q", workers, r.Report.Precisions)
			}
			if r.Report.Objective != "pareto" {
				t.Fatalf("workers=%d: report objective = %q", workers, r.Report.Objective)
			}
			if len(r.Report.Front) == 0 {
				t.Fatalf("workers=%d: pareto campaign produced an empty front", workers)
			}
		}

		results, metrics, events := evalLadderCampaign(t, workers, bench.NewCache(nil), compile.New(nil))
		if !reflect.DeepEqual(results, baseResults) {
			t.Errorf("workers=%d: cached ladder reports diverge from the cache-off baseline", workers)
		}
		if metrics != baseMetrics {
			t.Errorf("workers=%d: cached ladder metric snapshot diverges", workers)
		}
		if !reflect.DeepEqual(events, baseEvents) {
			t.Errorf("workers=%d: cached ladder event stream diverges", workers)
		}
	}
}

// TestLadderCampaignWorkerInvariance locks the Pareto front's
// scheduler-level determinism: the same ladder campaign at 1 and 8
// workers yields deeply equal reports - per-point time, energy, and
// error included - so the front is a campaign artifact, not a scheduling
// accident.
func TestLadderCampaignWorkerInvariance(t *testing.T) {
	run := func(workers int) []JobResult {
		results := Scheduler{Workers: workers}.Run(ladderJobs(t))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
		}
		return results
	}
	one, eight := run(1), run(8)
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("ladder campaign reports differ between 1 and 8 workers")
	}
	for i, r := range one {
		if r.Report.Energy <= 0 {
			t.Errorf("job %d: energy = %g, want > 0", i, r.Report.Energy)
		}
		// kmeans demotions can verify with exactly zero error, in which
		// case one point legitimately dominates the whole front -
		// reference included - so only non-emptiness is guaranteed.
		if len(r.Report.Front) == 0 {
			t.Errorf("job %d: pareto campaign produced an empty front", i)
		}
		for _, p := range r.Report.Front {
			if p.Time <= 0 || p.Energy <= 0 {
				t.Errorf("job %d: front point %s has non-positive time/energy", i, p.Config)
			}
		}
	}
}

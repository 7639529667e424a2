package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// engineYAML is a three-job campaign over the kmeans kernel, one entry
// per (fast) algorithm, in the harness Listing 4 format.
const engineYAML = `
kmeans-dd:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
        threshold: 1e-3
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans', 'kdd_bin']
  args: '-i kdd_bin -k 5 -n 5'
kmeans-hr:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'hierarchical'
        threshold: 1e-3
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans', 'kdd_bin']
  args: '-i kdd_bin -k 5 -n 5'
kmeans-gp:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'greedy'
        threshold: 1e-3
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans', 'kdd_bin']
  args: '-i kdd_bin -k 5 -n 5'
`

// engineSpecs parses the fixture campaign.
func engineSpecs(t *testing.T) []harness.Spec {
	t.Helper()
	specs, err := harness.ParseConfig(engineYAML)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// recordsJSON marshals journal records for byte comparison.
func recordsJSON(t *testing.T, recs []harness.JournalRecord) string {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// harnessRun executes the fixture campaign through harness.RunCampaign
// and returns its records, metrics exposition, and event stream: the
// baseline the engine must reproduce byte for byte.
func harnessRun(t *testing.T, specs []harness.Spec, workers int) (string, string, []telemetry.Event) {
	t.Helper()
	mem := telemetry.NewMemorySink()
	tel := telemetry.New(mem)
	results, err := harness.RunCampaign(specs, harness.CampaignOptions{
		Workers: workers, Seed: 42, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]harness.JournalRecord, len(results))
	for i, jr := range results {
		recs[i] = harness.ResultRecord(jr, specs[i].Name)
	}
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	return recordsJSON(t, recs), buf.String(), mem.Events()
}

// TestEngineByteIdenticalToHarness locks the determinism contract of
// the tentpole: a campaign routed through the engine produces records,
// metric snapshots, and event streams byte-identical to calling the
// harness directly, at multiple worker counts.
func TestEngineByteIdenticalToHarness(t *testing.T) {
	specs := engineSpecs(t)
	for _, workers := range []int{1, 4} {
		wantRecs, wantMetrics, wantEvents := harnessRun(t, specs, workers)

		e := New(Options{Workers: workers})
		id, err := e.Submit(engineYAML, SubmitOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("workers=%d: state %s, want done (err %q)", workers, st.State, st.Error)
		}
		if st.Completed != len(specs) || st.Jobs != len(specs) {
			t.Fatalf("workers=%d: completed %d/%d, want %d/%d",
				workers, st.Completed, st.Jobs, len(specs), len(specs))
		}
		recs, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsJSON(t, recs); got != wantRecs {
			t.Errorf("workers=%d: engine records diverge from harness:\n--- harness ---\n%s\n--- engine ---\n%s",
				workers, wantRecs, got)
		}
		var buf bytes.Buffer
		if err := e.WriteMetrics(id, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != wantMetrics {
			t.Errorf("workers=%d: engine metric snapshot diverges:\n--- harness ---\n%s\n--- engine ---\n%s",
				workers, wantMetrics, buf.String())
		}
		log, err := e.Events(id)
		if err != nil {
			t.Fatal(err)
		}
		events, closed := log.Since(0)
		if !closed {
			t.Errorf("workers=%d: event log still open after campaign finished", workers)
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Errorf("workers=%d: engine event stream diverges (%d vs %d events)",
				workers, len(events), len(wantEvents))
		}
		e.Close()
	}
}

// TestEngineConcurrentCampaignsSharedCache runs two campaigns at once
// on one engine: both must finish Done with records byte-identical to
// their solo baselines, and the second tenant must see run-cache hits
// from work the first already executed.
func TestEngineConcurrentCampaignsSharedCache(t *testing.T) {
	specs := engineSpecs(t)
	wantRecs, _, _ := harnessRun(t, specs, 2)

	e := New(Options{Workers: 2, MaxConcurrent: 2})
	defer e.Close()
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := e.Submit(engineYAML, SubmitOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Fatalf("duplicate campaign IDs: %q", ids)
	}
	for _, id := range ids {
		st, err := e.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("campaign %s: state %s, want done (err %q)", id, st.State, st.Error)
		}
		recs, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsJSON(t, recs); got != wantRecs {
			t.Errorf("campaign %s: records diverge from solo baseline", id)
		}
	}
	// Identical campaigns propose identical configurations, so the
	// shared cache must have served cross-tenant hits.
	if stats := e.Cache().Stats(); stats.Hits == 0 {
		t.Errorf("shared cache saw no hits across tenants: %+v", stats)
	}
}

// TestEngineCancelOneTenantLeavesOtherUntouched cancels one of two
// concurrent campaigns mid-flight and checks the survivor's output is
// still byte-identical to its solo baseline.
func TestEngineCancelOneTenantLeavesOtherUntouched(t *testing.T) {
	specs := engineSpecs(t)
	wantRecs, _, _ := harnessRun(t, specs, 2)

	e := New(Options{Workers: 2, MaxConcurrent: 2})
	defer e.Close()

	// The victim campaign cancels itself from its first job-completion
	// callback; the id is captured before any job can finish because
	// Submit returns before the dispatcher picks the campaign up.
	idCh := make(chan string, 1)
	victim, err := e.SubmitCampaign(mustCampaign(t), SubmitOptions{
		Seed: 42,
		OnJobDone: func(int, harness.JobResult) {
			select {
			case id := <-idCh:
				e.Cancel(id)
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	idCh <- victim
	survivor, err := e.Submit(engineYAML, SubmitOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	vst, err := e.Wait(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if vst.State != StateCanceled && vst.State != StateDone {
		t.Fatalf("victim: state %s, want canceled (or done if it outran the cancel)", vst.State)
	}
	sst, err := e.Wait(context.Background(), survivor)
	if err != nil {
		t.Fatal(err)
	}
	if sst.State != StateDone {
		t.Fatalf("survivor: state %s, want done (err %q)", sst.State, sst.Error)
	}
	recs, err := e.Results(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordsJSON(t, recs); got != wantRecs {
		t.Errorf("survivor records diverge from solo baseline after neighbor cancellation")
	}
}

// mustCampaign parses the fixture YAML as a harness.Campaign.
func mustCampaign(t *testing.T) harness.Campaign {
	t.Helper()
	hc, err := harness.ParseCampaign(engineYAML)
	if err != nil {
		t.Fatal(err)
	}
	return hc
}

// TestEngineCancelQueued cancels a campaign before a dispatcher picks
// it up: it must finish immediately as Canceled with no results.
func TestEngineCancelQueued(t *testing.T) {
	e := New(Options{Workers: 1, MaxConcurrent: 1, QueueDepth: 4})
	defer e.Close()

	// Hold the only dispatcher hostage with a campaign whose first job
	// callback blocks until released.
	release := make(chan struct{})
	blocker, err := e.SubmitCampaign(mustCampaign(t), SubmitOptions{
		Seed:      42,
		OnJobDone: func(int, harness.JobResult) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(engineYAML, SubmitOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st, err := e.Wait(context.Background(), queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued campaign: state %s, want canceled", st.State)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("queued campaign error %q does not name the cancellation", st.Error)
	}
	// A canceled-before-start campaign still accounts for every job:
	// each is recorded skipped, mirroring what the scheduler reports
	// for jobs a dying context kept from starting.
	recs, err := e.Results(queued)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != st.Jobs {
		t.Errorf("canceled-before-start campaign has %d records, want %d", len(recs), st.Jobs)
	}
	for _, rec := range recs {
		if !strings.Contains(rec.Error, "skipped") {
			t.Errorf("record %d error %q does not mark the job skipped", rec.Job, rec.Error)
		}
	}
	results, err := e.JobResults(queued)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != st.Jobs {
		t.Errorf("JobResults has %d entries, want %d", len(results), st.Jobs)
	}
	for _, jr := range results {
		if !jr.Skipped || !errors.Is(jr.Err, ErrCanceled) {
			t.Errorf("job %d: skipped=%v err=%v, want skipped wrapping ErrCanceled", jr.Index, jr.Skipped, jr.Err)
		}
	}
	close(release)
	if st, err := e.Wait(context.Background(), blocker); err != nil || st.State != StateDone {
		t.Fatalf("blocker: state %v err %v, want done", st.State, err)
	}
}

// TestEngineQueueFullAndDraining exercises the backpressure and
// shutdown errors Submit can return.
func TestEngineQueueFullAndDraining(t *testing.T) {
	e := New(Options{Workers: 1, MaxConcurrent: 1, QueueDepth: 1})

	release := make(chan struct{})
	blocker, err := e.SubmitCampaign(mustCampaign(t), SubmitOptions{
		Seed:      42,
		OnJobDone: func(int, harness.JobResult) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Make sure the dispatcher has taken the blocker off the queue, then
	// fill the single queue slot.
	waitForState(t, e, blocker, StateRunning)
	if _, err := e.Submit(engineYAML, SubmitOptions{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(engineYAML, SubmitOptions{Seed: 42}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: err %v, want ErrQueueFull", err)
	}
	close(release)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(engineYAML, SubmitOptions{Seed: 42}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err %v, want ErrDraining", err)
	}
	// Every accepted campaign reached a terminal state.
	for _, st := range e.Statuses() {
		if !st.State.Terminal() {
			t.Errorf("campaign %s still %s after drain", st.ID, st.State)
		}
	}
}

// waitForState polls a campaign's status until it reaches the wanted
// state (the scheduler's own synchronization makes this prompt).
func waitForState(t *testing.T, e *Engine, id string, want State) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		st, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("campaign %s reached terminal state %s while waiting for %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("campaign %s never reached state %s", id, want)
}

// TestEngineSubmitErrors covers the validation paths of Submit.
func TestEngineSubmitErrors(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if _, err := e.Submit("not: [valid", SubmitOptions{}); err == nil {
		t.Error("malformed YAML accepted")
	}
	if _, err := e.Submit(strings.Replace(engineYAML, "bin: 'kmeans'", "bin: 'doom'", 1), SubmitOptions{}); err == nil {
		t.Error("unresolvable benchmark accepted")
	}
	if _, err := e.SubmitCampaign(harness.Campaign{}, SubmitOptions{}); err == nil {
		t.Error("empty campaign accepted")
	}
	if _, err := e.Status("c9999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: err %v, want ErrNotFound", err)
	}
	if err := e.Cancel("c9999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown id: err %v, want ErrNotFound", err)
	}
}

// TestEventLogTail checks the Since/Wait tailing protocol a streaming
// reader uses.
func TestEventLogTail(t *testing.T) {
	l := NewEventLog()
	l.Emit(telemetry.Event{Seq: 1, Name: "a"})
	events, closed := l.Since(0)
	if len(events) != 1 || closed {
		t.Fatalf("Since(0) = %d events, closed=%v; want 1, open", len(events), closed)
	}
	// Wait returns immediately when events are already pending.
	if err := l.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// A blocked Wait wakes on Emit.
	done := make(chan error, 1)
	go func() { done <- l.Wait(context.Background(), 1) }()
	l.Emit(telemetry.Event{Seq: 2, Name: "b"})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	events, _ = l.Since(1)
	if len(events) != 1 || events[0].Name != "b" {
		t.Fatalf("Since(1) = %+v, want the second event", events)
	}
	// A blocked Wait wakes on Close, and Since reports completion.
	go func() { done <- l.Wait(context.Background(), 2) }()
	l.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, closed := l.Since(2); !closed {
		t.Error("Since does not report the closed log")
	}
	// A canceled context unblocks Wait with its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l2 := NewEventLog()
	if err := l2.Wait(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait under canceled ctx: err %v", err)
	}
}

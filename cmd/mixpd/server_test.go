package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

// campaignYAML is a two-job campaign over the kmeans kernel.
const campaignYAML = `
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

// postCampaign submits the fixture campaign and returns its status.
func postCampaign(t *testing.T, ts *httptest.Server, query string) engine.Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns"+query, "application/yaml", strings.NewReader(campaignYAML))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /campaigns: status %d", resp.StatusCode)
	}
	var st engine.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("POST /campaigns: empty id")
	}
	return st
}

// getJSON decodes one JSON GET response into v, returning the status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitDone polls a campaign's status until it is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) engine.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st engine.Status
		if code := getJSON(t, ts.URL+"/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /campaigns/%s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return engine.Status{}
}

// baselineRecords runs the fixture campaign directly through the
// harness: the bytes the service must reproduce.
func baselineRecords(t *testing.T, workers int) string {
	t.Helper()
	specs, err := harness.ParseConfig(campaignYAML)
	if err != nil {
		t.Fatal(err)
	}
	results, err := harness.RunCampaign(specs, harness.CampaignOptions{Workers: workers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]harness.JournalRecord, len(results))
	for i, jr := range results {
		recs[i] = harness.ResultRecord(jr, specs[i].Name)
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerCampaignLifecycle drives one campaign through the full API:
// submit, status, results (byte-identical to the harness baseline),
// metrics, SSE events, and idempotent cancel-after-done.
func TestServerCampaignLifecycle(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	st := postCampaign(t, ts, "?seed=42&name=lifecycle")
	if st.Name != "lifecycle" {
		t.Errorf("name %q, want lifecycle", st.Name)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != engine.StateDone {
		t.Fatalf("state %s, want done (err %q)", final.State, final.Error)
	}
	if final.Completed != final.Jobs || final.Jobs != 2 {
		t.Errorf("completed %d/%d, want 2/2", final.Completed, final.Jobs)
	}

	var recs []harness.JournalRecord
	if code := getJSON(t, ts.URL+"/campaigns/"+st.ID+"/results", &recs); code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	got, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := baselineRecords(t, 2); string(got) != want {
		t.Errorf("served records diverge from harness baseline:\n--- harness ---\n%s\n--- served ---\n%s", want, got)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body[:n]), "mixpbench_harness_jobs_total") {
		t.Errorf("metrics: status %d, body lacks harness counters", resp.StatusCode)
	}

	events := readSSE(t, ts.URL+"/campaigns/"+st.ID+"/events")
	if len(events) == 0 {
		t.Fatal("SSE stream carried no events")
	}
	if events[0] != "campaign_start" || events[len(events)-1] != "campaign_end" {
		t.Errorf("event stream ends %q...%q, want campaign_start...campaign_end", events[0], events[len(events)-1])
	}

	// Cancel after completion is a no-op that still reports the status.
	resp, err = http.Post(ts.URL+"/campaigns/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cancel done campaign: status %d", resp.StatusCode)
	}
	if st, _ := eng.Status(st.ID); st.State != engine.StateDone {
		t.Errorf("cancel after done flipped state to %s", st.State)
	}
}

// TestServerCacheDiagRunCache checks /cachediag's run-cache section
// after one campaign: the engine-wide cache's full-key counters and the
// executions its index shared, as the engine reports them. K-means
// reads only some of its sites, so the campaign's searches propose
// configurations that share executions.
func TestServerCacheDiagRunCache(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	st := postCampaign(t, ts, "?seed=42")
	if final := waitDone(t, ts, st.ID); final.State != engine.StateDone {
		t.Fatalf("state %s, want done (err %q)", final.State, final.Error)
	}
	var diag cacheDiagBody
	if code := getJSON(t, ts.URL+"/campaigns/"+st.ID+"/cachediag", &diag); code != http.StatusOK {
		t.Fatalf("GET cachediag: status %d", code)
	}
	rc := diag.RunCache
	if rc == nil {
		t.Fatal("cachediag has no runcache section")
	}
	if want := eng.Cache().Stats(); rc.Stats != want {
		t.Errorf("runcache stats %+v, engine cache %+v", rc.Stats, want)
	}
	if rc.Misses == 0 || rc.Hits == 0 || rc.Entries != rc.Misses {
		t.Errorf("runcache section shows no campaign traffic: %+v", rc.Stats)
	}
	if rc.SharedExecutions == 0 || rc.SharedExecutions > rc.Misses || rc.SharedExecutions != eng.Cache().SharedExecutions() {
		t.Errorf("shared executions %d: want between 1 and the %d misses, and the engine's %d", rc.SharedExecutions, rc.Misses, eng.Cache().SharedExecutions())
	}
}

// readSSE consumes a campaign's SSE stream to the final "done" frame
// and returns the telemetry event names in order.
func readSSE(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		name, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		if name == "done" {
			return names
		}
		names = append(names, name)
	}
	t.Fatalf("SSE stream ended without a done frame (%v)", sc.Err())
	return nil
}

// TestServerSSEResumeLive checks Last-Event-ID resumption on a campaign
// that is still running. A first stream reads the events logged so far
// and disconnects; a second resumes from the last id it saw while the
// campaign is held mid-run, then reads to the end. Together they deliver
// every event of the campaign exactly once, in order. A resume position
// that is not a non-negative integer is refused.
func TestServerSSEResumeLive(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	// The only worker holds job 0's completion until release closes, so
	// the campaign stays live with its start event logged.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	id, err := eng.Submit(campaignYAML, engine.SubmitOptions{Seed: 42, OnJobDone: func(i int, _ harness.JobResult) {
		if i == 0 {
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	log, err := eng.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := log.Wait(ctx, 0); err != nil {
		t.Fatal(err)
	}
	logged := log.Len()
	url := ts.URL + "/campaigns/" + id + "/events"

	for _, bad := range []struct{ header, after string }{
		{header: "-3"}, {after: "-3"}, {header: "x"}, {after: "1.5"},
	} {
		req, err := http.NewRequest(http.MethodGet, url+"?after="+bad.after, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad.header != "" {
			req.Header.Set("Last-Event-ID", bad.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Event-ID %q, after %q: status %d, want 400", bad.header, bad.after, resp.StatusCode)
		}
	}

	// First connection: the events logged so far, then disconnect.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var got []string
	for len(got) < logged {
		frame, ok := nextFrame(sc)
		if !ok {
			t.Fatalf("live stream ended after %d of %d frames: %v", len(got), logged, sc.Err())
		}
		got = append(got, frame)
	}
	resp.Body.Close()

	// Second connection: resume while the campaign is still held, then
	// let it finish.
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", frameID(got[len(got)-1]))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d", resp.StatusCode)
	}
	if st, err := eng.Status(id); err != nil || st.State.Terminal() {
		t.Fatalf("campaign not live at resume: %+v, %v", st, err)
	}
	unblock()
	sc = bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for {
		frame, ok := nextFrame(sc)
		if !ok {
			t.Fatalf("resumed stream ended without a done frame: %v", sc.Err())
		}
		if strings.HasPrefix(frame, "event: done") {
			break
		}
		got = append(got, frame)
	}

	want, _ := sseFrames(t, url, "")
	if len(got) != len(want) {
		t.Fatalf("live stream plus resume delivered %d frames, the campaign logged %d", len(got), len(want))
	}
	for i := range want {
		if id := frameID(got[i]); id != strconv.Itoa(i+1) || got[i] != want[i] {
			t.Fatalf("frame %d (id %s) differs from the full stream's:\n%s\nwant\n%s", i, id, got[i], want[i])
		}
	}
}

// TestServerTwoTenantsCancelOne is the service acceptance path: two
// concurrent campaigns share one engine (and run cache), one is
// canceled over the API mid-flight, and the survivor's results stay
// byte-identical to a solo harness run.
func TestServerTwoTenantsCancelOne(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2, MaxConcurrent: 2})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	victim := postCampaign(t, ts, "?seed=42&name=victim")
	survivor := postCampaign(t, ts, "?seed=42&name=survivor")
	resp, err := http.Post(ts.URL+"/campaigns/"+victim.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	vfinal := waitDone(t, ts, victim.ID)
	if vfinal.State != engine.StateCanceled && vfinal.State != engine.StateDone {
		t.Fatalf("victim state %s", vfinal.State)
	}
	sfinal := waitDone(t, ts, survivor.ID)
	if sfinal.State != engine.StateDone {
		t.Fatalf("survivor state %s, want done (err %q)", sfinal.State, sfinal.Error)
	}
	var recs []harness.JournalRecord
	getJSON(t, ts.URL+"/campaigns/"+survivor.ID+"/results", &recs)
	got, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := baselineRecords(t, 2); string(got) != want {
		t.Error("survivor records diverge from solo baseline after neighbor cancellation")
	}
}

// TestServerBackpressure fills the engine's queue and checks the 429
// and 503 answers.
func TestServerBackpressure(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	// Occupy the only dispatcher with a campaign whose first completed
	// job blocks until released, then fill the single queue slot.
	release := make(chan struct{})
	hc, err := harness.ParseCampaign(campaignYAML)
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := eng.SubmitCampaign(hc, engine.SubmitOptions{
		Seed:      42,
		OnJobDone: func(int, harness.JobResult) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := eng.Status(blocker)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == engine.StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	postCampaign(t, ts, "?seed=42") // fills the queue slot

	resp, err := http.Post(ts.URL+"/campaigns", "application/yaml", strings.NewReader(campaignYAML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(release)
	if err := eng.Drain(nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/campaigns", "application/yaml", strings.NewReader(campaignYAML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
}

// TestServerErrors covers the 4xx paths.
func TestServerErrors(t *testing.T) {
	// With a history directory /healthz also reports archive durability.
	eng := engine.New(engine.Options{HistoryDir: t.TempDir()})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/campaigns/c9999", nil); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/campaigns/c9999/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown campaign: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/campaigns", "application/yaml", strings.NewReader("not: [valid"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad YAML: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/campaigns?workers=-1", "application/yaml", strings.NewReader(campaignYAML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative workers: status %d, want 400", resp.StatusCode)
	}
	// A NaN threshold passes every range check; accepted, it reached the
	// results and history archive as a value JSON cannot encode.
	nan := strings.Replace(campaignYAML, "threshold: 1e-3", "threshold: nan", 1)
	resp, err = http.Post(ts.URL+"/campaigns", "application/yaml", strings.NewReader(nan))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("NaN threshold: status %d, want 400", resp.StatusCode)
	}
	big := strings.Repeat("#", maxCampaignBytes+2)
	resp, err = http.Post(ts.URL+"/campaigns", "application/yaml", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}

// TestServerStalledBodyTimesOut sends half a campaign body and then
// stalls: once the body-read deadline passes the submission is refused
// with a 400, and no campaign exists.
func TestServerStalledBodyTimesOut(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{}))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /campaigns HTTP/1.1\r\nHost: mixpd\r\nContent-Type: application/yaml\r\nContent-Length: %d\r\n\r\n%s",
		len(campaignYAML), campaignYAML[:len(campaignYAML)/2]); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a stalled body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stalled body: status %d, want 400", resp.StatusCode)
	}
	var all []engine.Status
	if code := getJSON(t, ts.URL+"/campaigns", &all); code != http.StatusOK || len(all) != 0 {
		t.Errorf("GET /campaigns after a stalled submission: status %d, %d campaigns, want none", code, len(all))
	}
}

// TestServerSIGTERMDrains boots the real server loop on an ephemeral
// port and checks a SIGTERM drains it to a clean exit.
func TestServerSIGTERMDrains(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run("127.0.0.1:0", 1, 1, 1, 30, false, false, "") }()
	// Give run() time to install its signal handler; before that a
	// SIGTERM would kill the test process outright.
	time.Sleep(250 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}

// TestValidateServeFlags rejects nonsense flag values.
func TestValidateServeFlags(t *testing.T) {
	for _, bad := range [][4]int{{-1, 1, 1, 1}, {0, -1, 1, 1}, {0, 1, -1, 1}, {0, 1, 1, -1}} {
		err := run("127.0.0.1:0", bad[0], bad[1], bad[2], bad[3], false, false, "")
		if err == nil {
			t.Errorf("run accepted flags %v", bad)
		}
	}
}

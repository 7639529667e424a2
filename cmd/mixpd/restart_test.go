package main

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

// sseFrames reads one /events stream to completion, returning the raw
// "id:"/"event:"/"data:" frames (done frame excluded) and the last SSE
// id seen. The `after` query resumes mid-stream exactly like a
// reconnecting EventSource sending Last-Event-ID.
func sseFrames(t *testing.T, url string, lastEventID string) (frames []string, lastID string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for {
		frame, ok := nextFrame(sc)
		if !ok {
			t.Fatalf("stream %s ended without a done frame: %v", url, sc.Err())
		}
		if strings.HasPrefix(frame, "event: done") {
			return frames, lastID
		}
		lastID = frameID(frame)
		frames = append(frames, frame)
	}
}

// nextFrame reads one SSE frame from sc: its "id:"/"event:"/"data:"
// lines joined by newlines. ok is false once the stream ends.
func nextFrame(sc *bufio.Scanner) (frame string, ok bool) {
	var lines []string
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		} else if len(lines) > 0 {
			return strings.Join(lines, "\n"), true
		}
	}
	return "", false
}

// frameID returns the SSE id of a frame, "" when it carries none.
func frameID(frame string) string {
	id, ok := strings.CutPrefix(frame, "id: ")
	if !ok {
		return ""
	}
	id, _, _ = strings.Cut(id, "\n")
	return id
}

// TestServerRestartServesStoredCampaign is the service-level tentpole
// acceptance test: generation 1 runs a campaign with -store wiring,
// generation 2 boots over the same directory and (a) serves the
// campaign's results byte-identically from the archive, (b) resumes
// the SSE event stream across the restart - a client holding a
// mid-stream Last-Event-ID receives exactly the frames it was owed,
// byte for byte - and (c) serves a re-submitted identical campaign
// almost entirely from the durable result store.
func TestServerRestartServesStoredCampaign(t *testing.T) {
	dir := t.TempDir()

	boot := func() (*engine.Engine, *httptest.Server, func()) {
		eng, st, err := openService(dir, engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("openService: %v", err)
		}
		ts := httptest.NewServer(newServer(eng, serverOptions{store: st}))
		return eng, ts, func() {
			ts.Close()
			eng.Close()
			if err := st.Close(); err != nil {
				t.Errorf("store close: %v", err)
			}
		}
	}

	// Generation 1: run the campaign, capture results and event frames.
	eng1, ts1, stop1 := boot()
	st := postCampaign(t, ts1, "?name=durable")
	st = waitDone(t, ts1, st.ID)
	if st.State != engine.StateDone {
		t.Fatalf("campaign state %s: %s", st.State, st.Error)
	}
	var gen1Results, gen2Results string
	{
		resp, err := http.Get(ts1.URL + "/campaigns/" + st.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		gen1Results = string(b)
	}
	frames1, _ := sseFrames(t, ts1.URL+"/campaigns/"+st.ID+"/events", "")
	if len(frames1) < 4 {
		t.Fatalf("campaign emitted only %d event frames", len(frames1))
	}
	// A client that consumed half the stream live remembers its last id.
	resume := len(frames1) / 2
	var resumeID string
	for _, line := range strings.Split(frames1[resume-1], "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			resumeID = id
		}
	}
	if resumeID == "" {
		t.Fatalf("frame %d carries no SSE id:\n%s", resume-1, frames1[resume-1])
	}
	hc1 := eng1.Cache().Stats()
	if hc1.TierWrites == 0 {
		t.Fatalf("generation 1 never wrote to the store: %+v", hc1)
	}
	stop1()

	// Generation 2 boots over the same -store directory.
	eng2, ts2, stop2 := boot()
	defer stop2()

	// (a) Byte-identical archived results.
	resp, err := http.Get(ts2.URL + "/campaigns/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	gen2Results = string(b)
	if gen2Results != gen1Results {
		t.Errorf("results changed across restart:\n--- gen1 ---\n%s\n--- gen2 ---\n%s", gen1Results, gen2Results)
	}

	// (b) SSE resume across generations: the tail from Last-Event-ID is
	// byte-identical to the frames the live stream would have sent.
	tail, _ := sseFrames(t, ts2.URL+"/campaigns/"+st.ID+"/events", resumeID)
	want := frames1[resume:]
	if len(tail) != len(want) {
		t.Fatalf("resumed stream has %d frames, want %d", len(tail), len(want))
	}
	for i := range want {
		if tail[i] != want[i] {
			t.Fatalf("resumed frame %d diverges:\n--- live ---\n%s\n--- resumed ---\n%s", i, want[i], tail[i])
		}
	}

	// Live-only artifacts answer 410 Gone, distinctly from 404/409.
	for _, path := range []string{"/trace", "/profile", "/cachediag", "/metrics"} {
		if code := getJSON(t, ts2.URL+"/campaigns/"+st.ID+path, nil); code != http.StatusGone {
			t.Errorf("GET %s on archived campaign: status %d, want 410", path, code)
		}
	}

	// (c) A re-submitted identical campaign is served from the store:
	// byte-identical records, near-100% tier hit rate.
	st2 := postCampaign(t, ts2, "?name=durable")
	st2 = waitDone(t, ts2, st2.ID)
	if st2.State != engine.StateDone {
		t.Fatalf("gen2 campaign state %s: %s", st2.State, st2.Error)
	}
	resp, err = http.Get(ts2.URL + "/campaigns/" + st2.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != gen1Results {
		t.Errorf("gen2 re-run records diverge from gen1:\n--- gen1 ---\n%s\n--- gen2 ---\n%s", gen1Results, b)
	}
	cs := eng2.Cache().Stats()
	if cs.Misses != 0 || cs.TierHits == 0 {
		t.Errorf("gen2 re-run executed instead of hitting the store: %+v", cs)
	}

	// /healthz on the warm generation: ok, with store stats attached.
	var hb healthBody
	if code := getJSON(t, ts2.URL+"/healthz", &hb); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
	if hb.Status != "ok" || hb.Store == nil || !hb.Store.Healthy || hb.Store.GetHits == 0 {
		t.Errorf("healthz body: %+v (store %+v)", hb, hb.Store)
	}
	if hb.Engine.Archived != 1 {
		t.Errorf("healthz engine health: %+v", hb.Engine)
	}

	// /cachediag on the warm campaign now carries the store section.
	var diag cacheDiagBody
	if code := getJSON(t, ts2.URL+"/campaigns/"+st2.ID+"/cachediag", &diag); code != http.StatusOK {
		t.Fatalf("GET cachediag: status %d", code)
	}
	if diag.Store == nil || diag.Store.Records == 0 {
		t.Errorf("cachediag store section: %+v", diag.Store)
	}
}

// TestServerHealthzDraining locks the probe contract: a draining
// server answers 503 with status "draining" so load balancers stop
// routing to it while in-flight campaigns finish.
func TestServerHealthzDraining(t *testing.T) {
	eng, st, err := openService("", engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, serverOptions{store: st}))
	defer ts.Close()

	var hb healthBody
	if code := getJSON(t, ts.URL+"/healthz", &hb); code != http.StatusOK || hb.Status != "ok" {
		t.Fatalf("healthy healthz: status %d body %+v", code, hb)
	}
	if hb.Store != nil {
		t.Errorf("storeless healthz reports a store: %+v", hb.Store)
	}
	if err := eng.Drain(nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), `"draining"`) {
		t.Errorf("draining healthz body: %s", b)
	}
}

package trace

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// sampleJobs is a small campaign with a retried job (fault + backoff +
// straggler surplus), a clean job, and a skipped job.
func sampleJobs() []Job {
	return []Job{
		{
			Index: 0, Entry: "kmeans", Bench: "kmeans", Algorithm: "ddebug", Threshold: 1e-3,
			Attempts: []Attempt{
				{Number: 1, BuildSeconds: 60, RunSeconds: 10, SpentSeconds: 280, BackoffSeconds: 30,
					Evaluations: 2, Fault: "straggler+transient", Err: "injected transient fault"},
				{Number: 2, BuildSeconds: 90, RunSeconds: 22.5, SpentSeconds: 112.5, Evaluations: 3, CacheHits: 1},
			},
			Degraded: true,
		},
		{
			Index: 1, Entry: "hydro", Bench: "hydro", Algorithm: "greedy", Threshold: 1e-8,
			Attempts: []Attempt{
				{Number: 1, BuildSeconds: 120, RunSeconds: 48, SpentSeconds: 168, Evaluations: 4},
			},
		},
		{Index: 2, Entry: "iccg", Bench: "iccg", Algorithm: "hierarchical", Threshold: 1e-8, Skipped: true, Canceled: true},
	}
}

func TestAssembleTimelineAndIDs(t *testing.T) {
	tr := Assemble("test", sampleJobs())
	if tr.Jobs != 3 {
		t.Fatalf("jobs = %d, want 3", tr.Jobs)
	}
	// Job 0: attempt1 spent 280 + backoff 30 + attempt2 spent 112.5 = 422.5;
	// job 1: 168; job 2: 0. Total 590.5.
	if got := tr.TotalSeconds(); math.Abs(got-590.5) > 1e-9 {
		t.Fatalf("total = %v, want 590.5", got)
	}
	if tr.Root.Args["total_seconds"] != 590.5 {
		t.Fatalf("root total_seconds arg = %v", tr.Root.Args["total_seconds"])
	}

	byID := map[string]*Span{}
	tr.Root.Walk(func(s *Span) { byID[s.ID] = s })
	for _, id := range []string{
		"campaign",
		"job:0", "job:0/attempt:1", "job:0/attempt:1/build", "job:0/attempt:1/run",
		"job:0/attempt:1/straggler", "job:0/backoff:1",
		"job:0/attempt:2", "job:0/attempt:2/build", "job:0/attempt:2/run",
		"job:1", "job:1/attempt:1",
		"job:2",
	} {
		if byID[id] == nil {
			t.Fatalf("missing span %q", id)
		}
	}
	if len(byID) != tr.Spans {
		t.Fatalf("span count %d != walked %d", tr.Spans, len(byID))
	}
	// Straggler residual: 280 - 60 - 10 = 210.
	if d := byID["job:0/attempt:1/straggler"].Duration(); math.Abs(d-210) > 1e-9 {
		t.Fatalf("straggler = %v, want 210", d)
	}
	// No straggler phase on the clean attempt.
	if byID["job:0/attempt:2/straggler"] != nil {
		t.Fatalf("unexpected straggler span on clean attempt")
	}
	// Backoff sits between the attempts.
	b := byID["job:0/backoff:1"]
	a2 := byID["job:0/attempt:2"]
	if b.End != a2.Start {
		t.Fatalf("backoff end %v != attempt 2 start %v", b.End, a2.Start)
	}
	// Skipped job is a zero-length marker with its flags.
	j2 := byID["job:2"]
	if j2.Duration() != 0 || j2.Args["skipped"] != true || j2.Args["canceled"] != true {
		t.Fatalf("skipped job span wrong: dur=%v args=%v", j2.Duration(), j2.Args)
	}
	// Every started span ends at or after its start, inside its parent.
	tr.Root.Walk(func(s *Span) {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.ID)
		}
		for _, c := range s.Children() {
			if c.Start < s.Start || c.End > s.End+1e-9 {
				t.Errorf("child %s [%v,%v] escapes parent %s [%v,%v]",
					c.ID, c.Start, c.End, s.ID, s.Start, s.End)
			}
			if c.Parent != s.ID {
				t.Errorf("child %s parent = %q, want %q", c.ID, c.Parent, s.ID)
			}
		}
	})
}

func TestAssembleDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, Assemble("test", sampleJobs())); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, Assemble("test", sampleJobs())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two assemblies of identical jobs differ")
	}
}

func TestChromeExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Assemble("test", sampleJobs())); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatalf("missing traceEvents wrapper")
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"events":[]}`,
		"missing ph":     `{"traceEvents":[{"name":"a"}]}`,
		"X missing dur":  `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1,"pid":1,"tid":1}]}`,
		"unsupported ph": `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}`,
		"only metadata":  `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":1}]}`,
		"overlapping X":  `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]}`,
	}
	for name, in := range cases {
		if err := ValidateChrome(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := Assemble("test", sampleJobs())
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != tr.Spans {
		t.Fatalf("jsonl lines = %d, want %d spans", len(lines), tr.Spans)
	}
	if !strings.Contains(lines[0], `"id":"campaign"`) {
		t.Fatalf("first line is not the root span: %s", lines[0])
	}
}

func TestProfilePhaseSumsToTotal(t *testing.T) {
	tr := Assemble("test", sampleJobs())
	p := BuildProfile(tr, 0)
	var sum float64
	for _, ph := range p.Phases {
		sum += ph.Seconds
	}
	if math.Abs(sum-p.TotalSeconds) > 1e-9 {
		t.Fatalf("phase sum %v != total %v", sum, p.TotalSeconds)
	}
	if math.Abs(p.TotalSeconds-tr.TotalSeconds()) > 1e-9 {
		t.Fatalf("profile total %v != trace total %v", p.TotalSeconds, tr.TotalSeconds())
	}
	// build: 60+90+120=270, run: 10+22.5+48=80.5, straggler: 210, backoff: 30.
	want := map[string]float64{"build": 270, "run": 80.5, "straggler": 210, "backoff": 30}
	for _, ph := range p.Phases {
		if math.Abs(ph.Seconds-want[ph.Phase]) > 1e-9 {
			t.Errorf("phase %s = %v, want %v", ph.Phase, ph.Seconds, want[ph.Phase])
		}
	}
	// Critical path: job 0 (422.5) before job 1 (168) before job 2 (0).
	if len(p.TopJobs) != 3 || p.TopJobs[0].Job != 0 || p.TopJobs[1].Job != 1 || p.TopJobs[2].Job != 2 {
		t.Fatalf("top jobs order wrong: %+v", p.TopJobs)
	}
	if p.TopJobs[0].Attempts != 2 || !p.TopJobs[0].Degraded {
		t.Fatalf("job 0 profile wrong: %+v", p.TopJobs[0])
	}
	if !p.TopJobs[2].Skipped || !p.TopJobs[2].Canceled {
		t.Fatalf("job 2 profile flags wrong: %+v", p.TopJobs[2])
	}
	// Top-N capping.
	if got := len(BuildProfile(tr, 2).TopJobs); got != 2 {
		t.Fatalf("topN=2 returned %d jobs", got)
	}
}

func TestWriteProfileText(t *testing.T) {
	var buf bytes.Buffer
	p := BuildProfile(Assemble("test", sampleJobs()), 0)
	if err := WriteProfileText(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"build", "straggler", "kmeans", "(canceled)", "590.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile text missing %q:\n%s", want, out)
		}
	}
}

func TestValidateOutputPaths(t *testing.T) {
	if err := ValidateOutputPaths(map[string]string{"-trace": "a.json", "-profile": "b.json"}); err != nil {
		t.Fatalf("distinct paths rejected: %v", err)
	}
	if err := ValidateOutputPaths(map[string]string{"-trace": ""}); err == nil {
		t.Fatal("empty path accepted")
	}
	err := ValidateOutputPaths(map[string]string{"-trace": "out.json", "-profile": "./out.json"})
	if err == nil {
		t.Fatal("duplicate path accepted")
	}
	if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate error text: %v", err)
	}
}

func TestCreateOutputMakesParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "nested", "trace.json")
	f, err := CreateOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{}"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDiag(t *testing.T) {
	d := NewDiag()
	p0 := d.Probe(0)
	p1 := d.Probe(1)
	ctx := WithProbe(context.Background(), p1)
	got := ProbeFrom(ctx)
	if got != p1 {
		t.Fatalf("ProbeFrom returned %v", got)
	}
	got.CacheHit()
	got.CacheHit()
	got.CacheMiss()
	got.InflightWait()
	p0.CacheMiss()
	snap := d.Snapshot()
	if len(snap) != 2 || snap[0].Job != 0 || snap[1].Job != 1 {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if snap[1].Hits != 2 || snap[1].Misses != 1 || snap[1].InflightWaits != 1 {
		t.Fatalf("job 1 stats wrong: %+v", snap[1])
	}
	// Nil-safety: no probe in context, nil diag.
	ProbeFrom(context.Background()).CacheHit()
	var nilDiag *Diag
	nilDiag.Probe(5).CacheMiss()
	if nilDiag.Snapshot() != nil {
		t.Fatal("nil diag snapshot not nil")
	}
}

func TestSortJobs(t *testing.T) {
	jobs := []Job{{Index: 2}, {Index: 0}, {Index: 1}}
	SortJobs(jobs)
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("jobs out of order: %+v", jobs)
		}
	}
}

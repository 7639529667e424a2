package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/harness"
	"repro/internal/mp"
	"repro/internal/runcache"
)

// campaignWorkers is the pool size of every in-process campaign: one per
// core of the 2-core machine the bounds were set on.
const campaignWorkers = 2

// A run rotates through campaignSeeds workload seeds: campaign i (the
// warm-up is campaign 0) uses seed + (i mod campaignSeeds) x seedStride.
// Campaign time differs by up to 15% between seeds of app-study, so a
// run's median then rests on several inputs instead of one.
const (
	campaignSeeds = 4
	seedStride    = 1_000_003
)

func campaignSeed(seed int64, i int) int64 { return seed + int64(i%campaignSeeds)*seedStride }

// childReport is what one program instance of an in-process workload
// reports to its parent, as the last line of its standard output.
type childReport struct {
	// Digests holds, per rotation seed, the first result digest seen.
	Digests []string `json:"digests"`
	// Samples are the timed campaigns' wall times in seconds.
	Samples []float64 `json:"samples,omitempty"`
	// WallS is the timed phase's wall time.
	WallS float64 `json:"wall_s,omitempty"`
	// Jobs and Failed count the campaigns' jobs and the ones that failed
	// (Err, Degraded or Skipped; a timed-out search is an outcome).
	Jobs   int `json:"jobs,omitempty"`
	Failed int `json:"failed,omitempty"`
	// Mismatch counts campaigns whose digest differs from the first
	// campaign of the same seed.
	Mismatch int `json:"mismatch,omitempty"`
	// Evaluated is the timed campaigns' total Report.Evaluated (EV).
	Evaluated int `json:"evaluated,omitempty"`
	// AllocMB is the timed phase's heap allocation in MB.
	AllocMB float64 `json:"alloc_mb,omitempty"`
	// Layers and ExecCalls are the traced run's per-layer values and
	// per-port execution counts (per traced campaign).
	Layers    map[string]float64 `json:"layers,omitempty"`
	ExecCalls map[string]float64 `json:"exec_calls,omitempty"`
}

// runCampaign parses and runs one campaign the way `mixpbench -config`
// does, with a fresh run cache and a fresh compiler so every campaign
// pays what a one-shot invocation pays, minus process start.
func runCampaign(src string, seed int64) ([]harness.Spec, []harness.JobResult, error) {
	c, err := harness.ParseCampaign(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := harness.RunCampaign(c.Specs, harness.CampaignOptions{
		Workers:  campaignWorkers,
		Seed:     seed,
		Cache:    bench.NewCache(nil),
		Compiler: compile.New(nil),
	})
	return c.Specs, res, err
}

// outcome is what the benchmark checks of one campaign's results.
type outcome struct {
	digest    string
	failed    int
	evaluated int
}

// checkResults digests a campaign's results: sha256 over the JSON array of
// harness.ResultRecord per job plus a newline, the bytes mixpd's
// /campaigns/{id}/results serves for the same campaign.
func checkResults(specs []harness.Spec, res []harness.JobResult) (outcome, error) {
	var o outcome
	recs := make([]harness.JournalRecord, len(res))
	for i, jr := range res {
		recs[i] = harness.ResultRecord(jr, specs[i].Name)
		if jr.Err != nil || jr.Degraded || jr.Skipped {
			o.failed++
		}
		o.evaluated += jr.Report.Evaluated
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return o, fmt.Errorf("encode results: %w", err)
	}
	o.digest = digestBytes(append(data, '\n'))
	return o, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// childMain is the body of a child process. It runs the warm-up campaign
// and prints "ready" as soon as its results are in hand - the parent
// times set-up from exec to that line - then, for a measuring child,
// runs the timed or traced phase, and finally prints its report.
func childMain(mode string, w workload, o options) error {
	specs, res, err := runCampaign(w.campaign, campaignSeed(o.seed, 0))
	if err != nil {
		return err
	}
	fmt.Println("ready")
	rep := childReport{Digests: make([]string, campaignSeeds)}
	if _, err := rep.check(0, specs, res); err != nil {
		return err
	}
	switch mode {
	case "setup":
	case "run":
		err = timedCampaigns(w, o, &rep)
	case "trace":
		err = tracedCampaigns(w, o, &rep)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d digests %s\n", w.name, o.seed, strings.Join(rep.Digests, ","))
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// timedCampaigns is the closed loop of the timed phase: one client, one
// campaign at a time, for o.seconds (at least one campaign).
func timedCampaigns(w workload, o options, rep *childReport) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	for i := 1; i == 1 || since(start) < o.seconds; i++ {
		t := now()
		specs, res, err := runCampaign(w.campaign, campaignSeed(o.seed, i))
		if err != nil {
			return err
		}
		rep.Samples = append(rep.Samples, since(t))
		evaluated, err := rep.check(i, specs, res)
		if err != nil {
			return err
		}
		rep.Evaluated += evaluated
	}
	rep.WallS = since(start)
	runtime.ReadMemStats(&after)
	rep.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	return nil
}

// check folds campaign i's results into the report's correctness
// counters and returns the campaign's evaluation count.
func (rep *childReport) check(i int, specs []harness.Spec, res []harness.JobResult) (int, error) {
	out, err := checkResults(specs, res)
	if err != nil {
		return 0, err
	}
	switch k := i % campaignSeeds; rep.Digests[k] {
	case "":
		rep.Digests[k] = out.digest
	case out.digest:
	default:
		rep.Mismatch++
	}
	rep.Jobs += len(res)
	rep.Failed += out.failed
	return out.evaluated, nil
}

// execAcct accumulates the time spent inside bench.Benchmark.Run - the
// ports and the mp runtime under them - across every decorated benchmark.
type execAcct struct {
	mu    sync.Mutex
	busy  float64 // seconds
	calls map[string]float64
	ms    []float64
}

func (a *execAcct) record(port string, seconds float64) {
	a.mu.Lock()
	a.busy += seconds
	a.calls[port]++
	a.ms = append(a.ms, seconds*1e3)
	a.mu.Unlock()
}

// timedBenchmark decorates a suite benchmark with exec-time accounting. It
// forwards the optional interfaces the compiled path consults, so
// compiled kernels, stream replay and results are those of the
// undecorated benchmark.
type timedBenchmark struct {
	bench.Benchmark
	acct *execAcct
}

func (t timedBenchmark) Run(tape *mp.Tape, seed int64) bench.Output {
	start := now()
	out := t.Benchmark.Run(tape, seed)
	t.acct.record(t.Name(), since(start))
	return out
}

func (t timedBenchmark) HiddenVars() int {
	if h, ok := t.Benchmark.(bench.HiddenVarser); ok {
		return h.HiddenVars()
	}
	return 0
}

func (t timedBenchmark) PureInit() bool {
	p, ok := t.Benchmark.(bench.PureIniter)
	return ok && p.PureInit()
}

// tracedCampaign is one campaign with per-job spans: the jobs of
// harness.JobsFromSpecs, each benchmark decorated, dispatched in order
// over campaignWorkers goroutines as single-job Scheduler{Workers: 1}
// calls sharing one run cache and one compiler - the sharing RunCampaign
// sets up, with an exact span per job.
type tracedCampaign struct {
	specs   []harness.Spec
	results []harness.JobResult
	parseS  float64
	wallS   float64 // dispatch to last job done
	totalS  float64 // parse to last job done, comparable to a timed campaign
	spans   []float64
	cache   runcache.Stats
	comp    compile.Stats
}

func runTraced(src string, seed int64, acct *execAcct) (*tracedCampaign, error) {
	start := now()
	c, err := harness.ParseCampaign(src)
	if err != nil {
		return nil, err
	}
	tc := &tracedCampaign{specs: c.Specs, parseS: since(start)}
	jobs, err := harness.JobsFromSpecs(c.Specs, seed)
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].Benchmark = timedBenchmark{jobs[i].Benchmark, acct}
	}
	sched := harness.Scheduler{Workers: 1, Cache: bench.NewCache(nil), Compiler: compile.New(nil)}
	tc.results = make([]harness.JobResult, len(jobs))
	tc.spans = make([]float64, len(jobs))
	dispatch := now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < campaignWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				t := now()
				jr := sched.Run(jobs[i : i+1])[0]
				tc.spans[i] = since(t)
				jr.Index = i
				tc.results[i] = jr
			}
		}()
	}
	wg.Wait()
	tc.wallS = since(dispatch)
	tc.totalS = since(start)
	tc.cache = sched.Cache.Stats()
	tc.comp = sched.Compiler.Stats()
	return tc, nil
}

// tracedCampaigns runs pairs of a traced and an untraced campaign on the
// same seed, in alternating order, for o.seconds (at least one pair), and
// reports per-layer values per traced campaign. Self time per layer: the
// ports' is the decorator's busy time, the search layer's is the job
// spans minus that, and the scheduler's idle time is whatever is left of
// workers x wall, so the three shares sum to 1. The median traced/untraced
// time ratio of the pairs is the tracing overhead.
func tracedCampaigns(w workload, o options, rep *childReport) error {
	acct := &execAcct{calls: map[string]float64{}}
	var (
		n                    float64
		ratios, parse, jmax  []float64
		wall, spans          float64
		evals, memo          float64
		cs                   runcache.Stats
		ks                   compile.Stats
		alloc, cycles, pause float64
	)
	start := now()
	for i := 1; i == 1 || since(start) < o.seconds; i++ {
		seed := campaignSeed(o.seed, i)
		var plainS float64
		untraced := func() error {
			t := now()
			specs, res, err := runCampaign(w.campaign, seed)
			if err != nil {
				return err
			}
			plainS = since(t)
			_, err = rep.check(i, specs, res)
			return err
		}
		if i%2 == 0 {
			if err := untraced(); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc, err := runTraced(w.campaign, seed, acct)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		if i%2 == 1 {
			if err := untraced(); err != nil {
				return err
			}
		}
		if _, err := rep.check(i, tc.specs, tc.results); err != nil {
			return err
		}
		alloc += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		cycles += float64(after.NumGC - before.NumGC)
		pause += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		n++
		ratios = append(ratios, tc.totalS/plainS)
		parse = append(parse, tc.parseS*1e3)
		wall += tc.wallS
		longest := 0.0
		for _, s := range tc.spans {
			spans += s
			longest = max(longest, s)
		}
		jmax = append(jmax, longest)
		for _, jr := range tc.results {
			evals += float64(jr.Report.Evaluated)
			memo += float64(jr.Report.CacheHits)
		}
		cs.Hits += tc.cache.Hits
		cs.Misses += tc.cache.Misses
		cs.InflightWaits += tc.cache.InflightWaits
		ks.Hits += tc.comp.Hits
		ks.Misses += tc.comp.Misses
		ks.StreamRecords += tc.comp.StreamRecords
		ks.StreamReplays += tc.comp.StreamReplays
	}
	capacity := campaignWorkers * wall
	calls := 0.0
	for _, c := range acct.calls {
		calls += c
	}
	rep.Layers = map[string]float64{
		"bench.exec_calls":        calls / n,
		"bench.exec_busy_s":       acct.busy / n,
		"bench.exec_share":        acct.busy / capacity,
		"bench.exec_ms_p50":       median(acct.ms),
		"search.self_share":       (spans - acct.busy) / capacity,
		"search.evaluations":      evals / n,
		"search.memo_hits":        memo / n,
		"search.evals_per_exec":   evals / calls,
		"harness.idle_share":      1 - spans/capacity,
		"harness.job_s_max":       median(jmax),
		"harness.parse_ms":        median(parse),
		"runcache.hits":           float64(cs.Hits) / n,
		"runcache.misses":         float64(cs.Misses) / n,
		"runcache.inflight_waits": float64(cs.InflightWaits) / n,
		"runcache.hit_ratio":      float64(cs.Hits) / float64(cs.Hits+cs.Misses),
		"compile.kernel_hits":     float64(ks.Hits) / n,
		"compile.kernel_misses":   float64(ks.Misses) / n,
		"compile.stream_records":  float64(ks.StreamRecords) / n,
		"compile.stream_replays":  float64(ks.StreamReplays) / n,
		"gc.alloc_mb":             alloc / n,
		"gc.cycles":               cycles / n,
		"gc.pause_ms":             pause / n,
		"trace.overhead_pct":      (median(ratios) - 1) * 100,
	}
	rep.ExecCalls = map[string]float64{}
	for port, c := range acct.calls {
		rep.ExecCalls[port] = c / n
	}
	return nil
}

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	mixpd   string
	// setups is how many cold starts a run measures; setup_s is their
	// median.
	setups int
	// benchtime is the layer ladder's testing benchtime.
	benchtime string
	// readSeeds is the number of generation-1 seeds service reads reuse,
	// and minSubmissions the fewest timed submissions a service run makes.
	readSeeds, minSubmissions int
}

// childRun is one measured child process.
type childRun struct {
	setupS float64 // exec until the warm-up campaign's results were in hand
	rssMB  float64 // the child's peak resident set (VmHWM)
	report childReport
}

// spawnChild runs this program as a child in the given mode and waits
// for it.
func spawnChild(ctx context.Context, mode string, w workload, o options) (childRun, error) {
	var run childRun
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return run, err
	}
	start := now()
	if err := cmd.Start(); err != nil {
		return run, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var last []byte
	for sc.Scan() {
		if run.setupS == 0 && sc.Text() == "ready" {
			run.setupS = since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := cmd.Wait(); err != nil {
		return run, fmt.Errorf("%s child of %s: %w", mode, w.name, err)
	}
	if err := json.Unmarshal(last, &run.report); err != nil {
		return run, fmt.Errorf("%s child of %s: bad report: %w", mode, w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024
	}
	return run, nil
}

// runInProcess measures an in-process workload into m: o.setups cold
// starts, the last of which goes on to the timed (or traced) phase. pins,
// when set, are the expected digests per rotation seed. It returns the
// measuring child's report.
func runInProcess(ctx context.Context, w workload, o options, pins []string, m *metricSet) (result, childReport, error) {
	var res result
	var setups []float64
	var last childRun
	correct := true
	for i := 0; i < o.setups; i++ {
		mode := "setup"
		if i == o.setups-1 {
			mode = "run"
			if o.trace {
				mode = "trace"
			}
		}
		run, err := spawnChild(ctx, mode, w, o)
		if err != nil {
			return res, run.report, err
		}
		setups = append(setups, run.setupS)
		if i > 0 && run.report.Digests[0] != last.report.Digests[0] {
			correct = false
		}
		res.Attempted += run.report.Jobs
		res.Failed += run.report.Failed
		last = run
	}
	rep := last.report
	for k, d := range rep.Digests {
		if pins != nil && d != "" && (k >= len(pins) || d != pins[k]) {
			fmt.Fprintf(os.Stderr, "benchmark: %s rotation seed %d digest %s is not the pinned one\n", w.name, k, d)
			correct = false
		}
	}
	if rep.Mismatch > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d campaigns differ from the first campaign of their seed\n", w.name, rep.Mismatch)
		correct = false
	}
	res.Correct = correct
	if o.trace {
		m.setAll(rep.Layers)
		return res, rep, nil
	}
	campaigns := float64(len(rep.Samples))
	m.set("setup_s", median(setups))
	m.set("campaign_s_p50", median(rep.Samples))
	m.set("campaign_s_tail", tail(rep.Samples))
	m.set("campaigns_per_s", campaigns/rep.WallS)
	m.set("evals_per_s", float64(rep.Evaluated)/rep.WallS)
	m.set("alloc_mb_per_campaign", rep.AllocMB/campaigns)
	m.set("peak_rss_mb", last.rssMB)
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d campaigns in %.2f s\n", w.name, len(rep.Samples), rep.WallS)
	return res, rep, nil
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

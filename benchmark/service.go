package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// mixpdProc is one running generation of the mixpd binary.
type mixpdProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startMixpd starts mixpd over storeDir on a free loopback port and waits
// until /healthz answers 200, which mixpd does only after the result
// store and the campaign history have been loaded. It returns the
// seconds from exec to that answer.
func startMixpd(ctx context.Context, bin, storeDir string) (*mixpdProc, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-store", storeDir, "-concurrent", "2", "-pprof")
	cmd.Stderr = os.Stderr
	p := &mixpdProc{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	start := now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { p.exited <- cmd.Wait() }()
	for since(start) < 60 {
		select {
		case err := <-p.exited:
			return nil, 0, fmt.Errorf("mixpd exited before it was healthy: %v", err)
		default:
		}
		if _, err := p.do(ctx, http.MethodGet, p.base+"/healthz", nil, http.StatusOK); err == nil {
			return p, since(start), nil
		}
		sleep(2 * time.Millisecond)
	}
	p.stop()
	return nil, 0, errors.New("mixpd did not become healthy within 60 s")
}

// stop sends SIGTERM, waits for the drain to finish, and returns the
// process's peak resident set (VmHWM) in MB.
func (p *mixpdProc) stop() (float64, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
	}
	err := <-p.exited
	rss := 0.0
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return rss, err
}

// phases splits one submission's latency on the client side, in seconds.
type phases struct {
	post, wait, results float64
}

// statusError is an answer with an unexpected status.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d", e.code) }

// submit posts the service campaign under seed, follows its SSE event
// stream to the done frame, and fetches its results. It returns the
// campaign ID and the /results body.
func (p *mixpdProc) submit(ctx context.Context, seed int64) (string, []byte, phases, error) {
	var ph phases
	t := now()
	url := fmt.Sprintf("%s/campaigns?workers=1&seed=%d", p.base, seed)
	body, err := p.do(ctx, http.MethodPost, url, strings.NewReader(serviceCampaign), http.StatusCreated)
	if err != nil {
		return "", nil, ph, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", nil, ph, fmt.Errorf("submit: %w", err)
	}
	ph.post = since(t)

	t = now()
	if err := p.awaitDone(ctx, st.ID); err != nil {
		return st.ID, nil, ph, err
	}
	ph.wait = since(t)

	t = now()
	results, err := p.do(ctx, http.MethodGet, p.base+"/campaigns/"+st.ID+"/results", nil, http.StatusOK)
	ph.results = since(t)
	return st.ID, results, ph, err
}

// awaitDone reads the campaign's event stream until its done frame.
func (p *mixpdProc) awaitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError{resp.StatusCode}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	return fmt.Errorf("campaign %s: event stream ended without done: %v", id, sc.Err())
}

// do sends one request and returns the body of an answer with the wanted
// status.
func (p *mixpdProc) do(ctx context.Context, method, url string, body io.Reader, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, statusError{resp.StatusCode}
	}
	return data, nil
}

// storeStats reads the result store's counters from /cachediag, which
// answers per campaign; the store section is process-wide.
func (p *mixpdProc) storeStats(ctx context.Context, id string) (store.Stats, error) {
	var diag struct {
		Store store.Stats `json:"store"`
	}
	data, err := p.do(ctx, http.MethodGet, p.base+"/campaigns/"+id+"/cachediag", nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(data, &diag)
	}
	return diag.Store, err
}

// memStats is the part of the runtime.MemStats header of mixpd's
// /debug/pprof/allocs?debug=1 page the benchmark reads.
type memStats struct {
	totalAlloc, numGC float64
	pauseNs           []float64 // the runtime's ring of recent GC pauses
}

func (p *mixpdProc) memStats(ctx context.Context) (memStats, error) {
	var ms memStats
	data, err := p.do(ctx, http.MethodGet, p.base+"/debug/pprof/allocs?debug=1", nil, http.StatusOK)
	if err != nil {
		return ms, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch name {
		case "TotalAlloc":
			ms.totalAlloc, err = strconv.ParseFloat(val, 64)
		case "NumGC":
			ms.numGC, err = strconv.ParseFloat(val, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				ns, perr := strconv.ParseFloat(f, 64)
				err = errors.Join(err, perr)
				ms.pauseNs = append(ms.pauseNs, ns)
			}
		}
		if err != nil {
			return ms, fmt.Errorf("mixpd memstats %s: %w", name, err)
		}
	}
	return ms, nil
}

// gcPauseMs sums the pauses of the collections between two readings.
// The runtime keeps only the last 256; beyond that the mean of those
// stands in for the rest.
func gcPauseMs(before, after memStats) float64 {
	n := int(after.numGC - before.numGC)
	ring := len(after.pauseNs)
	if n <= 0 || ring == 0 {
		return 0
	}
	seen := min(n, ring)
	sum := 0.0
	for g := int(after.numGC) - seen + 1; g <= int(after.numGC); g++ {
		sum += after.pauseNs[(g+ring-1)%ring]
	}
	return sum / float64(seen) * float64(n) / 1e6
}

// checkBody counts a /results body's failed jobs (an error, which
// skipped jobs carry too, or degraded) and its evaluations.
func checkBody(body []byte) (failed, evaluated int, err error) {
	var recs []struct {
		Error    string `json:"error"`
		Degraded bool   `json:"degraded"`
		Report   struct {
			Evaluated int `json:"evaluated"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &recs); err != nil {
		return 0, 0, fmt.Errorf("results: %w", err)
	}
	for _, r := range recs {
		if r.Error != "" || r.Degraded {
			failed++
		}
		evaluated += r.Report.Evaluated
	}
	return failed, evaluated, nil
}

// submission is one checked submission.
type submission struct {
	id        string
	write     bool
	seconds   float64
	ph        phases
	evaluated int
	ok        bool
}

// serviceRun is the client side of one service-store run.
type serviceRun struct {
	o     options
	reads []int64 // generation-1 seeds, which reads reuse
	rng   *rand.Rand

	mu        sync.Mutex
	pins      []string // each read seed's generation-1 /results digest
	attempted int
	failed    int
	rejected  int
	mismatch  int
}

// Read seeds lie below readSeedSpan and write seeds above it, so a write
// never repeats a read.
const readSeedSpan = 1 << 40

func newServiceRun(o options) *serviceRun {
	r := &serviceRun{o: o, rng: rand.New(rand.NewSource(o.seed))}
	for len(r.reads) < o.readSeeds {
		r.reads = append(r.reads, 1+r.rng.Int63n(readSeedSpan-1))
	}
	r.pins = make([]string, len(r.reads))
	return r
}

// one runs a submission and checks it: a read's /results body must equal
// generation 1's for its seed (read index idx; -1 for a write), and no
// job may fail. Generation 1 (pin) records the read digests instead.
func (r *serviceRun) one(ctx context.Context, p *mixpdProc, seed int64, idx int, pin bool) submission {
	t := now()
	id, body, ph, err := p.submit(ctx, seed)
	s := submission{id: id, write: idx < 0, seconds: since(t), ph: ph}
	failed := 0
	if err == nil {
		failed, s.evaluated, err = checkBody(body)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	var se statusError
	if errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable) {
		r.rejected++
	}
	if err != nil || failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: service-store seed %d: %d failed jobs, err %v\n", seed, failed, err)
		r.failed++
		return s
	}
	s.ok = true
	switch d := digestBytes(body); {
	case pin:
		r.pins[idx] = d
	case idx >= 0 && d != r.pins[idx]:
		r.mismatch++
	}
	return s
}

// closedLoop runs do on two client goroutines, each starting its next
// submission when its previous one is done, until next reports no more.
func closedLoop(next func() (int, bool), do func(k int)) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := next()
				if !ok {
					return
				}
				do(k)
			}
		}()
	}
	wg.Wait()
}

// runService measures the service-store workload into m.
//
// Set-up: generation 1 runs every read seed and stops (SIGTERM, drain).
// Each of o.setups restarts over the same store directory is timed from
// exec to healthy plus one read submission; the last generation stays up.
// Timed phase: a fixed 3:1 mix of reads (generation-1 seeds, served by
// the store's tier on the first pass and by the in-memory cache after)
// and writes (fresh seeds that execute, Put and group-commit fsync), for
// o.seconds or maxSubmissions submissions, whichever ends first, and at
// least o.minSubmissions.
//
// The mix is synthetic: there is no record of how mixpd is used, so the
// ratio is a choice, not a measurement. The two classes are the two uses
// the repository's README gives the store - a campaign re-run after a
// restart replays past executions, a new one persists its own - and the
// two clients match mixpd's -concurrent 2.
func runService(ctx context.Context, o options, pins []string, m *metricSet) (result, error) {
	dir, err := os.MkdirTemp("", "mixpd-store-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := newServiceRun(o)

	gen1, _, err := startMixpd(ctx, o.mixpd, dir)
	if err != nil {
		return result{}, err
	}
	var mu sync.Mutex
	next := 0
	closedLoop(func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next - 1, next <= len(r.reads)
	}, func(i int) { r.one(ctx, gen1, r.reads[i], i, true) })
	if _, err := gen1.stop(); err != nil {
		return result{}, fmt.Errorf("mixpd generation 1: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: service-store seed %d read digests %s\n", o.seed, strings.Join(r.pins, ","))
	correct := true
	for i, d := range r.pins {
		if i < len(pins) && d != pins[i] {
			fmt.Fprintf(os.Stderr, "benchmark: service-store read %d digest %s differs from the pinned %s\n", i, d, pins[i])
			correct = false
		}
	}

	var setups []float64
	var gen2 *mixpdProc
	var diagID string
	for i := 0; gen2 == nil; i++ {
		p, ready, err := startMixpd(ctx, o.mixpd, dir)
		if err != nil {
			return result{}, err
		}
		first := r.one(ctx, p, r.reads[0], 0, false)
		setups = append(setups, ready+first.seconds)
		if i < o.setups-1 && first.ok {
			if _, err := p.stop(); err != nil {
				return result{}, fmt.Errorf("mixpd restart %d: %w", i+1, err)
			}
			continue
		}
		gen2, diagID = p, first.id
	}
	stopped := false
	defer func() {
		if !stopped {
			gen2.stop()
		}
	}()

	memBefore, err := gen2.memStats(ctx)
	if err != nil {
		return result{}, err
	}
	storeBefore, err := gen2.storeStats(ctx, diagID)
	if err != nil {
		return result{}, err
	}
	subs, wall := r.timed(ctx, gen2)
	memAfter, err := gen2.memStats(ctx)
	if err != nil {
		return result{}, err
	}
	storeAfter, err := gen2.storeStats(ctx, diagID)
	if err != nil {
		return result{}, err
	}
	stopped = true
	rss, err := gen2.stop()
	if err != nil {
		return result{}, fmt.Errorf("mixpd generation 2: %w", err)
	}

	if r.mismatch > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: service-store: %d reads differ from generation 1\n", r.mismatch)
		correct = false
	}
	fmt.Fprintf(os.Stderr, "benchmark: service-store: %d submissions in %.2f s\n", len(subs), wall)
	n := float64(len(subs))
	var all, reads, writes, post, wait, results []float64
	evaluated := 0
	for _, s := range subs {
		all = append(all, s.seconds)
		evaluated += s.evaluated
		if !s.ok {
			continue
		}
		if s.write {
			writes = append(writes, s.seconds)
		} else {
			reads = append(reads, s.seconds)
		}
		post = append(post, s.ph.post*1e3)
		wait = append(wait, s.ph.wait)
		results = append(results, s.ph.results*1e3)
	}
	allocMB := (memAfter.totalAlloc - memBefore.totalAlloc) / 1e6
	if !o.trace {
		m.set("setup_s", median(setups))
		m.set("campaign_s_p50", median(all))
		m.set("campaign_s_tail", tail(all))
		m.set("campaigns_per_s", n/wall)
		m.set("evals_per_s", float64(evaluated)/wall)
		m.set("alloc_mb_per_campaign", allocMB/n)
		m.set("peak_rss_mb", rss)
	} else {
		gets := float64(storeAfter.Gets - storeBefore.Gets)
		hits := float64(storeAfter.GetHits - storeBefore.GetHits)
		m.setAll(map[string]float64{
			"mixpd.post_ms_p50":    median(post),
			"mixpd.wait_s_p50":     median(wait),
			"mixpd.results_ms_p50": median(results),
			"service.read_s_p50":   median(reads),
			"service.write_s_p50":  median(writes),
			"mixpd.rejected":       float64(r.rejected),
			"store.gets":           gets / n,
			"store.get_hits":       hits / n,
			"store.tier_hit_ratio": hits / gets,
			"store.puts":           float64(storeAfter.Puts-storeBefore.Puts) / n,
			"store.dropped_puts":   float64(storeAfter.DroppedPuts-storeBefore.DroppedPuts) / n,
			"store.write_errors":   float64(storeAfter.WriteErrors - storeBefore.WriteErrors),
			"store.live_mb":        float64(storeAfter.LiveBytes) / 1e6,
			"search.evaluations":   float64(evaluated) / n,
			"gc.alloc_mb":          allocMB / n,
			"gc.cycles":            (memAfter.numGC - memBefore.numGC) / n,
			"gc.pause_ms":          gcPauseMs(memBefore, memAfter) / n,
		})
	}
	return result{Correct: correct, Attempted: r.attempted, Failed: r.failed}, nil
}

// maxSubmissions ends the timed phase early. mixpd keeps every
// campaign's event log in memory, 1-2 MB per campaign, so the cap
// bounds its resident set; on the 2-core machine the bounds were set on,
// 400 submissions take about 13 s.
const maxSubmissions = 400

// timed is the timed phase: submission k is a write when k%4 == 3 and a
// read of the next generation-1 seed in turn otherwise.
func (r *serviceRun) timed(ctx context.Context, p *mixpdProc) ([]submission, float64) {
	var mu sync.Mutex
	var seeds []int64
	var subs []submission
	start := now()
	closedLoop(func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		k := len(seeds)
		if k >= maxSubmissions || (k >= r.o.minSubmissions && since(start) >= r.o.seconds) {
			return 0, false
		}
		if k%4 == 3 {
			seeds = append(seeds, readSeedSpan+r.rng.Int63n(readSeedSpan))
		} else {
			seeds = append(seeds, r.reads[(k-k/4)%len(r.reads)])
		}
		return k, true
	}, func(k int) {
		mu.Lock()
		seed := seeds[k]
		mu.Unlock()
		idx := -1
		if k%4 != 3 {
			idx = (k - k/4) % len(r.reads)
		}
		s := r.one(ctx, p, seed, idx, false)
		mu.Lock()
		subs = append(subs, s)
		mu.Unlock()
	})
	return subs, since(start)
}

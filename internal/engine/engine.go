// Package engine is the campaign service layer behind the mixpd server:
// it multiplexes any number of campaigns over one process, queueing
// each, running it with harness.RunCampaignContext, and keeping it for
// status, results, events, and trace queries. Each campaign runs under
// its own cancellation context with its own telemetry recorder and
// event log; all campaigns share a single run cache and compiler, so a
// configuration one tenant executed never re-runs for another. Routing
// a campaign through the engine changes nothing observable: results,
// journal records, and telemetry snapshots are byte-identical to
// calling the harness directly (the determinism contract the engine
// tests lock).
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/harness"
	"repro/internal/mp"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Sentinel errors the service layer maps to HTTP statuses.
var (
	// ErrQueueFull rejects a submission when the campaign queue is at
	// capacity (HTTP 429: retry later).
	ErrQueueFull = errors.New("engine: campaign queue full")
	// ErrDraining rejects submissions after Drain or Close began (HTTP
	// 503: the process is going away).
	ErrDraining = errors.New("engine: draining, not accepting campaigns")
	// ErrNotFound reports an unknown campaign ID (HTTP 404).
	ErrNotFound = errors.New("engine: no such campaign")
	// ErrCanceled is the cancellation cause Cancel installs on a
	// campaign's context.
	ErrCanceled = errors.New("engine: campaign canceled")
	// ErrNotReady reports that a campaign artifact (trace, profile) was
	// requested before the campaign reached a terminal state (HTTP 409:
	// come back when it is done).
	ErrNotReady = errors.New("engine: campaign still running")
	// ErrArchived reports that a campaign was restored from history
	// after a restart: its status, results, and events are served from
	// the archive, but artifacts needing live state (trace, profile,
	// cache diagnostics, metrics) are gone (HTTP 410).
	ErrArchived = errors.New("engine: campaign archived, live artifacts unavailable")
)

// State is a campaign's lifecycle position.
type State string

// Campaign states, in lifecycle order. Queued campaigns wait for a
// dispatcher slot; terminal states are Done, Canceled, and Failed.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Status is a point-in-time view of one campaign.
type Status struct {
	// ID is the engine-assigned campaign identifier.
	ID string `json:"id"`
	// Name is the submitter's label (defaults to the ID).
	Name string `json:"name"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Jobs is the campaign's total job count (one per config entry).
	Jobs int `json:"jobs"`
	// Completed counts jobs that have reached a final result, skipped
	// and resumed jobs included.
	Completed int `json:"completed"`
	// Error is the campaign-level failure or cancellation cause.
	Error string `json:"error,omitempty"`
}

// Options configures an Engine.
type Options struct {
	// Workers is the default per-campaign scheduler pool size
	// (0 = GOMAXPROCS); SubmitOptions.Workers overrides it per campaign.
	Workers int
	// QueueDepth bounds how many campaigns may wait for a dispatcher
	// slot (default 16); submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// MaxConcurrent is the number of campaigns that run at once
	// (default 2).
	MaxConcurrent int
	// Cache is the shared run cache every campaign joins; nil means the
	// engine creates one. Sharing never changes results (see
	// bench.Runner.Cache).
	Cache *bench.Cache
	// HistoryDir, when set, persists every terminal campaign (status,
	// results, event log) to one JSON document per campaign, written
	// with full fsync discipline, and restores them on boot - so a
	// restarted process keeps answering for campaigns the previous
	// generation ran, and SSE clients resume with Last-Event-ID across
	// the restart. Empty disables persistence.
	HistoryDir string
}

// SubmitOptions parameterises one campaign submission. The campaign
// always records telemetry into its own event log and runs on the
// engine's shared run cache and compiler.
type SubmitOptions struct {
	// Name labels the campaign in statuses (default: its ID).
	Name string
	// Seed is the workload seed; zero means the canonical study seed.
	Seed int64
	// Workers overrides the engine's per-campaign pool size.
	Workers int
	// Precisions, when non-empty, is the campaign's default precision
	// ladder (e.g. "f64,f32,bf16"), applied to every spec that does not
	// set its own precisions clause (see harness.CampaignOptions).
	Precisions string
	// Objective, when non-empty, is the campaign's default analysis
	// objective ("threshold" or "pareto"; see harness.CampaignOptions).
	Objective string
	// OnJobDone, when non-nil, is called once per finished job from
	// whichever worker finished it (see harness.Scheduler.OnJobDone).
	OnJobDone func(idx int, r harness.JobResult)
}

// campaign is one submitted campaign's full state.
type campaign struct {
	id     string
	name   string
	specs  []harness.Spec
	copts  harness.CampaignOptions
	ctx    context.Context //mixplint:ignore ctxfirst -- the campaign record owns its context for its whole async lifetime; dispatchers pick the record up from a queue, so there is no call chain to thread it through
	cancel context.CancelCauseFunc
	events *EventLog
	diag   *trace.Diag
	done   chan struct{}
	// jobs is the campaign's job count; kept separately from len(specs)
	// because archived campaigns are restored without their specs.
	jobs int
	// archived marks a campaign restored from history: status, results,
	// and events come from the archive, live-only artifacts are gone.
	archived bool

	mu        sync.Mutex
	state     State
	err       error
	completed int
	filled    []bool
	records   []harness.JournalRecord
	results   []harness.JobResult
}

// status snapshots the campaign under its lock.
func (c *campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{ID: c.id, Name: c.name, State: c.state, Jobs: c.jobs, Completed: c.completed}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	return st
}

// finishCanceled completes a campaign that never reached a scheduler:
// every job is reported skipped (the same shape the scheduler produces
// for jobs a dying context kept from starting), so callers always get
// one result per job whether the cancellation landed before or during
// the run. The caller has already claimed the campaign by setting its
// state to Canceled under c.mu.
func (c *campaign) finishCanceled(cause error) {
	results := make([]harness.JobResult, len(c.specs))
	for i, s := range c.specs {
		results[i] = harness.JobResult{
			Index:   i,
			Skipped: true,
			Err: fmt.Errorf("harness: job %d (%s/%s) skipped: %w",
				i, s.Name, s.Analysis.Algorithm, cause),
		}
		c.copts.OnJobDone(i, results[i])
	}
	c.mu.Lock()
	c.results = results
	c.mu.Unlock()
	c.events.Close()
	close(c.done)
}

// jobDone records one finished job for the results endpoint and chains
// the submitter's callback. It runs on scheduler workers, concurrently.
func (c *campaign) jobDone(user func(int, harness.JobResult)) func(int, harness.JobResult) {
	return func(idx int, jr harness.JobResult) {
		rec := harness.ResultRecord(jr, c.specs[idx].Name)
		c.mu.Lock()
		if !c.filled[idx] {
			c.filled[idx] = true
			c.records[idx] = rec
			c.completed++
		}
		c.mu.Unlock()
		if user != nil {
			user(idx, jr)
		}
	}
}

// Engine multiplexes campaigns over a bounded dispatcher pool.
type Engine struct {
	opts       Options
	cache      *bench.Cache
	compiler   *compile.Compiler
	rootCtx    context.Context //mixplint:ignore ctxfirst -- the engine-lifetime context parents every campaign context and dies in Close; it is state, not a request scope
	rootCancel context.CancelFunc
	queue      chan *campaign
	wg         sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	counter   int
	draining  bool
	// History persistence health, surfaced through Health().
	histWriteErrs uint64
	histLoadErrs  uint64
	histLastErr   string
}

// New starts an engine: MaxConcurrent dispatcher goroutines over a
// queue of QueueDepth waiting campaigns. Stop it with Drain (finish
// everything accepted) or Close (cancel everything and stop).
func New(opts Options) *Engine {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	cache := opts.Cache
	if cache == nil {
		cache = bench.NewCache(nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:       opts,
		cache:      cache,
		compiler:   compile.New(nil),
		rootCtx:    ctx,
		rootCancel: cancel,
		queue:      make(chan *campaign, opts.QueueDepth),
		campaigns:  map[string]*campaign{},
	}
	e.loadHistory()
	for i := 0; i < opts.MaxConcurrent; i++ {
		e.wg.Add(1)
		go e.dispatch()
	}
	return e
}

// Cache returns the engine's shared run cache.
func (e *Engine) Cache() *bench.Cache { return e.cache }

// CompileStats returns the engine-wide compiler's activity counters:
// resident tape pools and recorded input streams, runs on recycled and
// fresh tapes, stream records and replays. Like the run-cache
// attribution these are live diagnostics - whether a run finds a
// recycled tape depends on scheduling and the garbage collector - so
// they feed /cachediag, never the deterministic campaign artifacts.
func (e *Engine) CompileStats() compile.Stats { return e.compiler.Stats() }

// Submit parses a YAML campaign configuration (the harness Listing 4
// format, faults clause included) and enqueues it.
func (e *Engine) Submit(src string, opts SubmitOptions) (string, error) {
	hc, err := harness.ParseCampaign(src)
	if err != nil {
		return "", err
	}
	return e.SubmitCampaign(hc, opts)
}

// SubmitCampaign enqueues an already-parsed campaign. The specs,
// precisions, and objective are validated up front, so a bad submission
// is refused here rather than failing later. It returns the campaign's
// engine-assigned ID.
func (e *Engine) SubmitCampaign(hc harness.Campaign, opts SubmitOptions) (string, error) {
	if len(hc.Specs) == 0 {
		return "", errors.New("engine: campaign has no benchmark entries")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = report.Seed
	}
	if _, err := harness.JobsFromSpecs(hc.Specs, seed); err != nil {
		return "", err
	}
	if opts.Precisions != "" {
		if _, err := mp.ParseLadder(opts.Precisions); err != nil {
			return "", fmt.Errorf("engine: precisions: %w", err)
		}
	}
	if _, err := search.ParseObjective(opts.Objective); err != nil {
		return "", fmt.Errorf("engine: objective: %w", err)
	}
	workers := opts.Workers
	if workers == 0 {
		workers = e.opts.Workers
	}

	ctx, cancel := context.WithCancelCause(e.rootCtx)
	c := &campaign{
		name:    opts.Name,
		specs:   hc.Specs,
		ctx:     ctx,
		cancel:  cancel,
		events:  NewEventLog(),
		diag:    trace.NewDiag(),
		done:    make(chan struct{}),
		jobs:    len(hc.Specs),
		state:   StateQueued,
		filled:  make([]bool, len(hc.Specs)),
		records: make([]harness.JournalRecord, len(hc.Specs)),
	}
	c.copts = harness.CampaignOptions{
		Workers:    workers,
		Seed:       seed,
		Telemetry:  telemetry.New(c.events),
		Faults:     hc.Faults,
		Retry:      hc.Retry,
		Cache:      e.cache,
		Compiler:   e.compiler,
		Precisions: opts.Precisions,
		Objective:  opts.Objective,
		OnJobDone:  c.jobDone(opts.OnJobDone),
		TraceDiag:  c.diag,
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		cancel(ErrDraining)
		return "", ErrDraining
	}
	e.counter++
	id := fmt.Sprintf("c%04d", e.counter)
	c.id = id
	if c.name == "" {
		c.name = id
	}
	select {
	case e.queue <- c:
		e.campaigns[id] = c
		e.order = append(e.order, id)
		e.mu.Unlock()
		return id, nil
	default:
		e.counter--
		e.mu.Unlock()
		cancel(ErrQueueFull)
		return "", ErrQueueFull
	}
}

// dispatch runs queued campaigns until the queue closes.
func (e *Engine) dispatch() {
	defer e.wg.Done()
	for c := range e.queue {
		e.runCampaign(c)
	}
}

// runCampaign drives one campaign from Queued to a terminal state.
func (e *Engine) runCampaign(c *campaign) {
	c.mu.Lock()
	switch {
	case c.state != StateQueued:
		// Cancel already finished it while it waited in the queue.
		c.mu.Unlock()
		return
	case c.ctx.Err() != nil:
		cause := context.Cause(c.ctx)
		c.state = StateCanceled
		c.err = cause
		c.mu.Unlock()
		c.finishCanceled(cause)
		e.archiveCampaign(c)
		return
	}
	c.state = StateRunning
	c.mu.Unlock()

	results, err := harness.RunCampaignContext(c.ctx, c.specs, c.copts)
	c.mu.Lock()
	c.results = results
	switch {
	case err != nil:
		c.state, c.err = StateFailed, err
	case c.ctx.Err() != nil:
		c.state, c.err = StateCanceled, context.Cause(c.ctx)
	default:
		c.state = StateDone
	}
	c.mu.Unlock()
	c.events.Close()
	close(c.done)
	e.archiveCampaign(c)
}

// campaign looks one up by ID.
func (e *Engine) campaign(id string) (*campaign, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// Status returns one campaign's current status.
func (e *Engine) Status(id string) (Status, error) {
	c, err := e.campaign(id)
	if err != nil {
		return Status{}, err
	}
	return c.status(), nil
}

// Statuses returns every campaign's status in submission order.
func (e *Engine) Statuses() []Status {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	e.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if c, err := e.campaign(id); err == nil {
			out = append(out, c.status())
		}
	}
	return out
}

// Cancel stops a campaign: a queued one finishes immediately as
// Canceled with every job reported skipped; a running one stops at its
// jobs' next evaluation boundaries (in-flight jobs report canceled
// best-so-far analyses, unstarted ones come back skipped). Canceling a
// finished campaign is a no-op.
func (e *Engine) Cancel(id string) error {
	c, err := e.campaign(id)
	if err != nil {
		return err
	}
	c.cancel(ErrCanceled)
	c.mu.Lock()
	if c.state == StateQueued {
		c.state = StateCanceled
		c.err = ErrCanceled
		c.mu.Unlock()
		c.finishCanceled(ErrCanceled)
		e.archiveCampaign(c)
		return nil
	}
	c.mu.Unlock()
	return nil
}

// Wait blocks until the campaign reaches a terminal state or ctx is
// done, returning the status either way (with ctx's error in the
// second case).
func (e *Engine) Wait(ctx context.Context, id string) (Status, error) {
	c, err := e.campaign(id)
	if err != nil {
		return Status{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-c.done:
		return c.status(), nil
	case <-ctx.Done():
		return c.status(), ctx.Err()
	}
}

// Done returns a channel closed when the campaign reaches a terminal
// state.
func (e *Engine) Done(id string) (<-chan struct{}, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	return c.done, nil
}

// Results returns the finished jobs' records in job order, as many as
// have completed so far; after the campaign reaches a terminal state
// the slice is complete. The record shape is the checkpoint journal's
// (JSON-safe: NaN metrics as strings, configs as digit keys).
func (e *Engine) Results(id string) ([]harness.JournalRecord, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]harness.JournalRecord, 0, c.completed)
	for i, ok := range c.filled {
		if ok {
			out = append(out, c.records[i])
		}
	}
	return out, nil
}

// JobResults returns the campaign's results once it reached a terminal
// state (nil before that): one per job in submission order, with jobs a
// cancellation kept from starting reported skipped.
func (e *Engine) JobResults(id string) ([]harness.JobResult, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results, nil
}

// Err returns the campaign-level error: the failure for StateFailed,
// the cancellation cause for StateCanceled, nil otherwise.
func (e *Engine) Err(id string) (error, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err, nil
}

// Events returns the campaign's event log for tailing.
func (e *Engine) Events(id string) (*EventLog, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	return c.events, nil
}

// Trace assembles the campaign's deterministic span tree. It is
// available once the campaign reaches a terminal state - the tree is a
// pure function of the final per-job accounting, so serving a partial
// one would only ever be thrown away - and fails with ErrNotReady
// before that. The same campaign spec yields byte-identical exported
// traces at any worker count and cache mode (the harness determinism
// contract).
func (e *Engine) Trace(id string) (*trace.Trace, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	if c.archived {
		return nil, fmt.Errorf("%w: %q", ErrArchived, id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.state.Terminal() || c.results == nil {
		return nil, fmt.Errorf("%w: %q is %s", ErrNotReady, id, c.state)
	}
	return harness.BuildTrace(c.name, c.specs, c.results), nil
}

// Profile aggregates the campaign's trace into the per-phase /
// critical-path report (topN caps the job table; <=0 keeps all).
// Like Trace it requires a terminal campaign.
func (e *Engine) Profile(id string, topN int) (*trace.Profile, error) {
	t, err := e.Trace(id)
	if err != nil {
		return nil, err
	}
	return trace.BuildProfile(t, topN), nil
}

// CacheDiag returns the campaign's live per-job run-cache attribution
// (hits, misses, in-flight waits). Available at any time, but
// scheduling-dependent: which job leads an execution versus waits on
// another's is a race between workers, so these numbers are
// diagnostics, not part of the deterministic trace artifacts.
func (e *Engine) CacheDiag(id string) ([]trace.JobCacheStats, error) {
	c, err := e.campaign(id)
	if err != nil {
		return nil, err
	}
	if c.archived {
		return nil, fmt.Errorf("%w: %q", ErrArchived, id)
	}
	return c.diag.Snapshot(), nil
}

// WriteMetrics writes the campaign's metrics registry in the text
// exposition format.
func (e *Engine) WriteMetrics(id string, w io.Writer) error {
	c, err := e.campaign(id)
	if err != nil {
		return err
	}
	if c.archived {
		return fmt.Errorf("%w: %q", ErrArchived, id)
	}
	return c.copts.Telemetry.WriteMetrics(w)
}

// Drain seals the engine against new submissions and waits for every
// accepted campaign - running and queued - to finish, or for ctx. It
// does not cancel anything; pair with Close for a deadline-bounded
// shutdown (drain, then close when the deadline passes).
func (e *Engine) Drain(ctx context.Context) error {
	e.seal()
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every campaign, seals the queue, and waits for the
// dispatchers to stop. Queued campaigns finish as Canceled.
func (e *Engine) Close() error {
	e.rootCancel()
	e.seal()
	e.wg.Wait()
	return nil
}

// seal stops accepting submissions and closes the queue once.
func (e *Engine) seal() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()
}

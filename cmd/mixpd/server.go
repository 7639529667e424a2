package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; mounted only with -pprof
	"strconv"
	"time"

	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/runcache"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxCampaignBytes bounds a submitted configuration body; the paper's
// configs are a few KB, so 1 MiB is generous without inviting abuse.
const maxCampaignBytes = 1 << 20

// bodyReadTimeout bounds reading a submitted configuration body, so a
// client that stalls mid-upload gets a 400 instead of holding its
// connection open. A variable only so tests can shorten it.
var bodyReadTimeout = 30 * time.Second

// serverOptions configures the HTTP surface beyond its engine.
type serverOptions struct {
	// accessLog, when non-nil, receives one JSON line per request.
	accessLog io.Writer
	// pprof mounts net/http/pprof under /debug/pprof/.
	pprof bool
	// store is the optional durable result store behind the shared run
	// cache; /healthz and /cachediag report its health and traffic.
	store *store.Store
}

// newServer builds the HTTP API over one engine:
//
//	GET  /healthz                  durability-aware health: store and
//	                               campaign-history write health plus
//	                               drain state; 503 while degraded or
//	                               draining
//	GET  /metrics                  server-wide request metrics (text exposition)
//	GET  /campaigns                all statuses, submission order
//	POST /campaigns                submit a YAML campaign (the body);
//	                               ?name= ?seed= ?workers= optional
//	GET  /campaigns/{id}           one status
//	POST /campaigns/{id}/cancel    cancel (idempotent); returns status
//	GET  /campaigns/{id}/results   finished jobs so far, job order
//	GET  /campaigns/{id}/events    telemetry event stream over SSE
//	GET  /campaigns/{id}/metrics   campaign metrics (text exposition)
//	GET  /campaigns/{id}/trace     Chrome trace_event JSON of the finished
//	                               campaign (?format=jsonl for the span log);
//	                               409 while it is still running
//	GET  /campaigns/{id}/profile   per-phase / critical-path profile
//	                               (?top=N caps the job table); 409 while
//	                               running
//	GET  /campaigns/{id}/cachediag live per-job run-cache attribution
//	                               (scheduling-dependent diagnostics),
//	                               the engine-wide compiler's and run
//	                               cache's counters, plus result-store
//	                               health when the server runs with
//	                               -store
//
// Every route is wrapped with per-route request metrics and, when
// enabled, structured access logging. Submission backpressure: a full
// queue answers 429 with Retry-After, a draining server answers 503;
// campaign artifacts requested early answer 409.
func newServer(e *engine.Engine, opts serverOptions) http.Handler {
	o := newObs(opts.accessLog)
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, o.route(pattern, h))
	}
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		serveHealth(e, opts.store, w)
	})
	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.tel.WriteMetrics(w)
	})
	handle("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Statuses())
	})
	handle("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		submit(e, w, r)
	})
	handle("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := e.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	handle("POST /campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := e.Cancel(id); err != nil {
			writeError(w, err)
			return
		}
		st, err := e.Status(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	handle("GET /campaigns/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		recs, err := e.Results(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, recs)
	})
	handle("GET /campaigns/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Buffer the exposition so an archived campaign (whose recorder
		// is gone) answers a clean 410 instead of a half-written 200.
		var buf bytes.Buffer
		if err := e.WriteMetrics(r.PathValue("id"), &buf); err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	handle("GET /campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		streamEvents(e, w, r)
	})
	handle("GET /campaigns/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		serveTrace(e, w, r)
	})
	handle("GET /campaigns/{id}/profile", func(w http.ResponseWriter, r *http.Request) {
		serveProfile(e, w, r)
	})
	handle("GET /campaigns/{id}/cachediag", func(w http.ResponseWriter, r *http.Request) {
		diag, err := e.CacheDiag(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		body := cacheDiagBody{Jobs: diag}
		cs := e.CompileStats()
		body.Compile = &cs
		body.RunCache = &runCacheDiag{Stats: e.Cache().Stats(), SharedExecutions: e.Cache().SharedExecutions()}
		if opts.store != nil {
			ss := opts.store.Stats()
			body.Store = &ss
		}
		writeJSON(w, http.StatusOK, body)
	})
	if opts.pprof {
		// pprof registers on DefaultServeMux; mount it explicitly so the
		// engine's mux (which never touches the default) can serve it.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	return mux
}

// serveTrace handles GET /campaigns/{id}/trace: the deterministic span
// tree of a finished campaign as Chrome trace_event JSON (open the
// download in Perfetto or chrome://tracing), or as the flat JSONL span
// log with ?format=jsonl.
func serveTrace(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	t, err := e.Trace(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChromeTrace(w, t)
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		trace.WriteJSONL(w, t)
	default:
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: "unknown trace format; want chrome or jsonl"})
	}
}

// serveProfile handles GET /campaigns/{id}/profile: the per-phase and
// critical-path aggregation of the campaign's trace. ?top=N caps the
// job table.
func serveProfile(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	topN := 0
	if s := r.URL.Query().Get("top"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad top: must be a non-negative integer"})
			return
		}
		topN = n
	}
	p, err := e.Profile(r.PathValue("id"), topN)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// submit handles POST /campaigns.
func submit(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	// The deadline bounds the body read. It stays set on a rejected body,
	// so the server's drain of the unread rest fails at once and closes
	// the connection, and is cleared once the body is accepted, so the
	// server's background read cannot time out and cancel the request
	// while the handler works. Setting it fails only for a writer with no
	// connection underneath, where there is nothing to bound.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)) //mixplint:ignore simclock -- a socket deadline is real time by nature; it bounds the HTTP read, not any simulated campaign
	body, err := io.ReadAll(io.LimitReader(r.Body, maxCampaignBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "read body: " + err.Error()})
		return
	}
	if len(body) > maxCampaignBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("campaign configuration exceeds %d bytes", maxCampaignBytes)})
		return
	}
	_ = rc.SetReadDeadline(time.Time{})
	opts := engine.SubmitOptions{Name: r.URL.Query().Get("name")}
	if s := r.URL.Query().Get("seed"); s != "" {
		if opts.Seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad seed: " + err.Error()})
			return
		}
	}
	if s := r.URL.Query().Get("workers"); s != "" {
		if opts.Workers, err = strconv.Atoi(s); err != nil || opts.Workers < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad workers: must be a non-negative integer"})
			return
		}
	}
	// Submit validates both before accepting the campaign, so a typo'd
	// ladder or objective is a 400 here, not a failed campaign later.
	opts.Precisions = r.URL.Query().Get("precisions")
	opts.Objective = r.URL.Query().Get("objective")
	id, err := e.Submit(string(body), opts)
	if err != nil {
		writeError(w, err)
		return
	}
	st, err := e.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+id)
	writeJSON(w, http.StatusCreated, st)
}

// streamEvents serves a campaign's telemetry event log as Server-Sent
// Events: one "event:"/"data:" frame per telemetry event, the event's
// stream sequence number as the SSE id, and a final "done" frame when
// the campaign finishes. A reconnecting client resumes with
// Last-Event-ID (or ?after=N, a non-negative count of events already
// received; anything else answers 400) and misses nothing: the log keeps
// the full history.
func streamEvents(e *engine.Engine, w http.ResponseWriter, r *http.Request) {
	log, err := e.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	// The resume position counts events already delivered; the loop
	// below counts on from it, so anything but a non-negative integer is
	// refused rather than guessed at.
	after := 0
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("after")
	}
	if s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad Last-Event-ID or after: must be a non-negative integer"})
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	n := after
	for {
		events, closed := log.Since(n)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				data = []byte(`{"error":"unencodable event"}`)
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, data)
		}
		n += len(events)
		flusher.Flush()
		if closed {
			fmt.Fprintf(w, "event: done\ndata: {}\n\n")
			flusher.Flush()
			return
		}
		if err := log.Wait(r.Context(), n); err != nil {
			return // client went away
		}
	}
}

// cacheDiagBody is the /cachediag response: the campaign's live
// per-job run-cache attribution, the engine-wide compiler's tape-pool
// and input-stream counters, the engine-wide run cache's counters,
// plus, when the server runs with -store, the durable tier's health and
// traffic counters. The compile and run-cache sections are engine-wide
// (the compiler and the run cache are shared across tenants by design)
// and scheduling-dependent, like the per-job attribution.
type cacheDiagBody struct {
	Jobs     []trace.JobCacheStats `json:"jobs"`
	Compile  *compile.Stats        `json:"compile,omitempty"`
	RunCache *runCacheDiag         `json:"runcache,omitempty"`
	Store    *store.Stats          `json:"store,omitempty"`
}

// runCacheDiag is /cachediag's run-cache section: the full-key table's
// traffic (runcache.Stats, under its Go field names) and the run-cache
// misses its execution index served without executing.
type runCacheDiag struct {
	runcache.Stats
	SharedExecutions uint64 `json:"shared_executions"`
}

// healthBody is the /healthz response: overall status plus the two
// durability subsystems behind it - campaign history persistence
// (engine) and the result store. Status is "ok" while everything
// writes cleanly, "draining" once shutdown began, and "degraded" when
// either subsystem has recorded write or read errors; the latter two
// answer 503 so probes pull the instance out of rotation before data
// loss compounds.
type healthBody struct {
	Status string        `json:"status"`
	Engine engine.Health `json:"engine"`
	Store  *store.Stats  `json:"store,omitempty"`
}

// serveHealth handles GET /healthz.
func serveHealth(e *engine.Engine, st *store.Store, w http.ResponseWriter) {
	h := e.Health()
	body := healthBody{Status: "ok", Engine: h}
	healthy := h.Healthy()
	if st != nil {
		ss := st.Stats()
		body.Store = &ss
		healthy = healthy && ss.Healthy
	}
	status := http.StatusOK
	switch {
	case !healthy:
		body.Status = "degraded"
		status = http.StatusServiceUnavailable
	case h.Draining:
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps engine errors to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, engine.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, engine.ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrNotReady):
		status = http.StatusConflict
	case errors.Is(err, engine.ErrArchived):
		status = http.StatusGone
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

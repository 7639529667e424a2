// Command mixpd is the campaign service: an HTTP server over the
// engine that runs mixed-precision analysis campaigns for any number of
// concurrent clients, all sharing one run cache. Submit a YAML harness
// configuration (the paper's Listing 4 format), poll its status, tail
// its telemetry as Server-Sent Events, fetch its per-job results, or
// cancel it - each campaign runs under its own cancellation context,
// so stopping one tenant never perturbs another.
//
// Usage:
//
//	mixpd [-addr :8177] [-workers N] [-concurrent M] [-queue D]
//	      [-access-log] [-pprof] [-store DIR]
//
// Observability: every route is wrapped with per-route request metrics
// (GET /metrics, text exposition); -access-log adds one JSON line per
// request on stderr; -pprof mounts net/http/pprof under /debug/pprof/.
// Finished campaigns serve their deterministic trace and profile at
// /campaigns/{id}/trace and /campaigns/{id}/profile.
//
// Quick start:
//
//	mixpd -addr :8177 &
//	curl -s -X POST --data-binary @configs/kmeans.yaml localhost:8177/campaigns
//	curl -s localhost:8177/campaigns/c0001
//	curl -s localhost:8177/campaigns/c0001/results
//	curl -N localhost:8177/campaigns/c0001/events
//
// Backpressure: at most -concurrent campaigns run at once and -queue
// more may wait; a submission beyond that is answered 429 so clients
// retry instead of piling up. On SIGTERM or SIGINT the server stops
// accepting work and drains: running and queued campaigns finish
// (bounded by -drain-seconds, after which they are canceled), then the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8177", "listen address")
		workers      = flag.Int("workers", 0, "default per-campaign worker pool size (0 = GOMAXPROCS)")
		concurrent   = flag.Int("concurrent", 2, "campaigns running at once")
		queue        = flag.Int("queue", 16, "campaigns allowed to wait for a slot")
		drainSeconds = flag.Int("drain-seconds", 60, "graceful shutdown budget before in-flight campaigns are canceled")
		accessLog    = flag.Bool("access-log", false, "log one JSON line per HTTP request on stderr")
		pprof        = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		storeDir     = flag.String("store", "", "durable state directory: results persist in DIR/results, campaign history in DIR/campaigns, both surviving restarts")
	)
	flag.Parse()
	if err := run(*addr, *workers, *concurrent, *queue, *drainSeconds, *accessLog, *pprof, *storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "mixpd:", err)
		os.Exit(1)
	}
}

// openService opens the optional durable layer and builds the engine
// over it: the result store becomes the shared run cache's persistent
// tier and the engine archives every terminal campaign under the same
// root, so a restarted process warm-starts from both. The test's
// two-generation restart harness goes through this same constructor.
func openService(storeDir string, opts engine.Options) (*engine.Engine, *store.Store, error) {
	var st *store.Store
	if storeDir != "" {
		if err := trace.ValidateOutputPaths(map[string]string{"-store": storeDir}); err != nil {
			return nil, nil, err
		}
		var err error
		st, err = store.Open(filepath.Join(storeDir, "results"),
			store.Options{Fingerprint: bench.DefaultStoreFingerprint()})
		if err != nil {
			return nil, nil, err
		}
		opts.HistoryDir = filepath.Join(storeDir, "campaigns")
		opts.Cache = bench.NewStoredCache(nil, st)
	}
	return engine.New(opts), st, nil
}

// Connection timeouts. A client that opens a connection and trickles its
// request headers, or parks an idle keep-alive connection, is cut off
// instead of holding a connection and its goroutine forever; POST
// /campaigns bounds its body read itself (bodyReadTimeout). There is
// deliberately no server-wide ReadTimeout or WriteTimeout: an expired
// connection read deadline makes the server's background read fail and
// cancel the request context, and a write deadline cuts the response -
// either would end a long-lived GET /campaigns/{id}/events SSE stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// run wires the engine, the HTTP server, and the signal-driven drain.
func run(addr string, workers, concurrent, queue, drainSeconds int, accessLog, pprof bool, storeDir string) error {
	if workers < 0 || concurrent < 0 || queue < 0 || drainSeconds < 0 {
		return fmt.Errorf("-workers, -concurrent, -queue, and -drain-seconds must be >= 0")
	}
	eng, st, err := openService(storeDir, engine.Options{
		Workers:       workers,
		MaxConcurrent: concurrent,
		QueueDepth:    queue,
	})
	if err != nil {
		return err
	}
	defer st.Close() // nil-safe; final flush for the no-drain exit paths
	sopts := serverOptions{pprof: pprof, store: st}
	if accessLog {
		sopts.accessLog = os.Stderr
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           newServer(eng, sopts),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mixpd: listening on %s (concurrent=%d queue=%d)\n", addr, concurrent, queue)

	select {
	case err := <-errCh:
		eng.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintln(os.Stderr, "mixpd: draining")

	deadline, cancel := context.WithTimeout(context.Background(), time.Duration(drainSeconds)*time.Second)
	defer cancel()
	// Stop accepting connections first (SSE streams of finished
	// campaigns end on their own), then let accepted campaigns finish.
	if err := srv.Shutdown(deadline); err != nil {
		fmt.Fprintln(os.Stderr, "mixpd: http shutdown:", err)
	}
	if err := eng.Drain(deadline); err != nil {
		fmt.Fprintln(os.Stderr, "mixpd: drain deadline passed, canceling remaining campaigns")
	}
	eng.Close()
	fmt.Fprintln(os.Stderr, "mixpd: bye")
	return nil
}

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// obs is the server's observability bundle: per-route request metrics
// on a server-level telemetry registry, plus structured (JSON lines)
// access logging. These measure the HTTP surface with real wall-clock
// time - unlike campaign telemetry, which runs on the simulated clock -
// so they live on their own recorder and never mix into campaign
// artifacts.
type obs struct {
	tel *telemetry.Recorder

	logMu sync.Mutex
	logW  io.Writer // nil disables access logging
}

// newObs builds the bundle; logW nil disables access logging.
func newObs(logW io.Writer) *obs {
	return &obs{tel: telemetry.New(nil), logW: logW}
}

// requestSecondsBuckets spans sub-millisecond status reads to
// minutes-long SSE streams.
var requestSecondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

// accessRecord is one access-log line.
type accessRecord struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Route      string  `json:"route"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	Remote     string  `json:"remote"`
}

// route wraps a handler with metrics and access logging under a fixed
// route label (the registration pattern, so cardinality stays bounded
// however clients spell their paths).
func (o *obs) route(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //mixplint:ignore simclock -- HTTP access latency is a property of the real server, not of any simulated campaign; this recorder never merges into campaign telemetry
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := time.Since(start) //mixplint:ignore simclock -- same wall-clock request timing as above
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		o.tel.Counter("mixpd_http_requests_total",
			"route", label, "code", strconv.Itoa(code)).Inc()
		o.tel.Histogram("mixpd_http_request_seconds", requestSecondsBuckets,
			"route", label).Observe(elapsed.Seconds())
		if o.logW == nil {
			return
		}
		line, err := json.Marshal(accessRecord{
			Time:       start.UTC().Format(time.RFC3339Nano),
			Method:     r.Method,
			Path:       r.URL.Path,
			Route:      label,
			Status:     code,
			Bytes:      sw.bytes,
			DurationMS: float64(elapsed.Microseconds()) / 1000,
			Remote:     r.RemoteAddr,
		})
		if err != nil {
			return
		}
		o.logMu.Lock()
		o.logW.Write(append(line, '\n'))
		o.logMu.Unlock()
	}
}

// statusWriter captures the response status and size. It forwards
// Flush so SSE streaming (which asserts http.Flusher) keeps working
// through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// WriteHeader records the status.
func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

// Write counts the body bytes.
func (s *statusWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	n, err := s.ResponseWriter.Write(b)
	s.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// the submit handler uses to set its body-read deadline.
func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// Flush forwards to the underlying writer when it streams.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

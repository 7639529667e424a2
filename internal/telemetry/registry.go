// Package telemetry is the suite's observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with Prometheus-style
// text exposition) and a structured event stream with pluggable sinks.
//
// The paper's methodology is per-configuration accounting - EV counts,
// cumulative simulated seconds, the timeout cells of Table V - so the
// instrumented pipeline must be reproducible: every timing fed into a
// metric or event comes from the simulated clock (perfmodel seconds), not
// wall time, and the harness merges per-job telemetry in job submission
// order. Two campaigns with the same seed therefore produce byte-identical
// metric snapshots regardless of the worker pool size.
//
// All types are safe for concurrent use, and every method tolerates a nil
// receiver (a no-op), so instrumented code never needs "is telemetry on"
// branches.
package telemetry

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Metric kinds, in exposition vocabulary.
const (
	counterKind   = "counter"
	gaugeKind     = "gauge"
	histogramKind = "histogram"
)

// Default bucket boundaries for the suite's two histogram families.
var (
	// SpeedupBuckets covers the paper's SU range: below 1.0 is a
	// slowdown, 2.0 is the precision-rate ceiling, beyond it is the
	// cache-capacity regime (LavaMD).
	SpeedupBuckets = []float64{0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 1.75, 2, 3}
	// SecondsBuckets spans simulated durations from a single kernel run
	// to the paper's 24-hour analysis budget.
	SecondsBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 600, 3600, 21600, 86400}
)

// Counter is a monotonically increasing metric.
type Counter struct {
	mu  sync.Mutex
	val float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates delta (negative deltas panic: a shrinking counter is an
// instrumentation bug).
func (c *Counter) Add(delta float64) {
	if c == nil {
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("telemetry: counter decrement %g", delta))
	}
	c.mu.Lock()
	c.val += delta
	c.mu.Unlock()
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// Gauge is a metric that can move in both directions.
type Gauge struct {
	mu  sync.Mutex
	val float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.val = v
	g.mu.Unlock()
}

// SetMax raises the value to v if v is larger. Progress-style gauges
// updated from concurrent workers use it so a late, smaller update cannot
// overwrite a newer, larger one.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if v > g.val {
		g.val = v
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

// Histogram counts observations into cumulative-exposition buckets with
// fixed upper bounds, plus a sum and a total count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1, per-bucket (not cumulative)
	sum    float64
	n      uint64
}

// Observe records one value. NaN observations are dropped: they carry no
// bucket and would poison the sum.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// series is one (name, label set) time series in the registry.
type series struct {
	name   string
	labels string // canonical rendered {k="v",...} block, "" when unlabelled
	kind   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// seriesKey identifies a series by its name and canonical label block.
type seriesKey struct{ name, labels string }

// Registry holds a process's metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op receiver.
//
// A series is rendered once, when it is registered. Lookups go through
// an index keyed by the caller's own name and label strings, so asking
// again for a series that exists renders, sorts and allocates nothing.
type Registry struct {
	mu     sync.Mutex
	series map[seriesKey]*series
	// lookup maps appendLookupKey(name, labels), the labels in the
	// caller's order, to the series they render to. Two orders of the same pairs
	// are two entries for one series.
	lookup map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[seriesKey]*series), lookup: make(map[string]*series)}
}

// labelBlock renders alternating key/value pairs into the canonical
// (key-sorted) exposition label block.
func labelBlock(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	b := []byte{'{'}
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, p.v)
	}
	return string(append(b, '}'))
}

// appendLookupKey appends the lookup index key of (name, labels): each
// string prefixed by its length, so no byte inside a name, key or value
// can make two different lists encode alike.
func appendLookupKey(b []byte, name string, labels []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	for _, l := range labels {
		b = binary.AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
	}
	return b
}

// get returns the series for (name, labels), creating it with mk on first
// use and panicking if the name is already registered under another kind.
func (r *Registry) get(name, kind string, labels []string, mk func(*series)) *series {
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be alternating key/value pairs")
	}
	var buf [128]byte
	key := appendLookupKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.lookup[string(key)]
	if !ok {
		s = r.getRenderedLocked(name, labelBlock(labels), kind, mk)
		r.lookup[string(key)] = s
	}
	if s.kind != kind {
		panic(kindMismatch(s, kind))
	}
	return s
}

// kindMismatch is the panic message for a series requested as a kind
// other than the one it was registered as.
func kindMismatch(s *series, kind string) string {
	return fmt.Sprintf("telemetry: metric %s%s registered as %s, requested as %s", s.name, s.labels, s.kind, kind)
}

// Counter returns (registering on first use) the counter for name with the
// given alternating label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, counterKind, labels, func(s *series) { s.c = &Counter{} }).c
}

// Gauge returns (registering on first use) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, gaugeKind, labels, func(s *series) { s.g = &Gauge{} }).g
}

// Histogram returns (registering on first use) the histogram for name and
// labels. bounds are the sorted bucket upper bounds; they matter only on
// first registration of the series.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, histogramKind, labels, func(s *series) {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		s.h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	}).h
}

// sorted returns the registry's series ordered by (name, labels) - the
// deterministic iteration order every export and merge uses.
func (r *Registry) sorted() []*series {
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// Merge folds src's series into r, in src's deterministic series order:
// counters add, gauges take src's value, histograms (which must share
// bucket bounds) add per-bucket. The harness uses it to combine per-job
// registries in job submission order, which keeps floating-point sums
// byte-identical under any worker count.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	entries := src.sorted()
	src.mu.Unlock()
	for _, s := range entries {
		switch s.kind {
		case counterKind:
			dst := r.getRendered(s.name, s.labels, counterKind, func(d *series) { d.c = &Counter{} })
			dst.c.Add(s.c.Value())
		case gaugeKind:
			dst := r.getRendered(s.name, s.labels, gaugeKind, func(d *series) { d.g = &Gauge{} })
			dst.g.Set(s.g.Value())
		case histogramKind:
			s.h.mu.Lock()
			bounds := append([]float64(nil), s.h.bounds...)
			counts := append([]uint64(nil), s.h.counts...)
			sum, n := s.h.sum, s.h.n
			s.h.mu.Unlock()
			dst := r.getRendered(s.name, s.labels, histogramKind, func(d *series) {
				d.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
			})
			dst.h.mu.Lock()
			for i, c := range counts {
				dst.h.counts[i] += c
			}
			dst.h.sum += sum
			dst.h.n += n
			dst.h.mu.Unlock()
		}
	}
}

// AddSnapshot folds a snapshot's series into the registry: counters add,
// gauges take the snapshot's value, histograms add per-bucket. Folding a
// snapshot into a fresh registry reconstructs the snapshotted one exactly
// (bit-identical values, same series order), which is what lets a resumed
// campaign merge journaled per-job metrics as if the jobs had just run.
func (r *Registry) AddSnapshot(snap Snapshot) {
	if r == nil {
		return
	}
	for _, p := range snap.Counters {
		r.getRendered(p.Name, p.Labels, counterKind, func(d *series) { d.c = &Counter{} }).c.Add(p.Value)
	}
	for _, p := range snap.Gauges {
		r.getRendered(p.Name, p.Labels, gaugeKind, func(d *series) { d.g = &Gauge{} }).g.Set(p.Value)
	}
	for _, hp := range snap.Histograms {
		bounds := append([]float64(nil), hp.Bounds...)
		dst := r.getRendered(hp.Name, hp.Labels, histogramKind, func(d *series) {
			d.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		})
		dst.h.mu.Lock()
		for i, c := range hp.Counts {
			if i < len(dst.h.counts) {
				dst.h.counts[i] += c
			}
		}
		dst.h.sum += hp.Sum
		dst.h.n += hp.Count
		dst.h.mu.Unlock()
	}
}

// getRendered is get for a label block that is already canonical.
func (r *Registry) getRendered(name, block, kind string, mk func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getRenderedLocked(name, block, kind, mk)
	if s.kind != kind {
		panic(kindMismatch(s, kind))
	}
	return s
}

// getRenderedLocked returns the series for (name, block), creating it
// with mk on first use. The caller holds r.mu and checks the kind.
func (r *Registry) getRenderedLocked(name, block, kind string, mk func(*series)) *series {
	k := seriesKey{name, block}
	s, ok := r.series[k]
	if !ok {
		s = &series{name: name, labels: block, kind: kind}
		mk(s)
		r.series[k] = s
	}
	return s
}

// Point is one counter or gauge sample in a snapshot.
type Point struct {
	// Name is the metric name.
	Name string `json:"name"`
	// Labels is the canonical rendered label block ("" when unlabelled).
	Labels string `json:"labels,omitempty"`
	// Value is the sample.
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot.
type HistogramPoint struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf bucket and is per-bucket, not cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, sorted by (name,
// labels). It is JSON-serialisable and restores exactly via AddSnapshot:
// the harness's checkpoint journal rides on this round trip.
type Snapshot struct {
	Counters   []Point          `json:"counters,omitempty"`
	Gauges     []Point          `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	entries := r.sorted()
	r.mu.Unlock()
	for _, s := range entries {
		switch s.kind {
		case counterKind:
			snap.Counters = append(snap.Counters, Point{s.name, s.labels, s.c.Value()})
		case gaugeKind:
			snap.Gauges = append(snap.Gauges, Point{s.name, s.labels, s.g.Value()})
		case histogramKind:
			s.h.mu.Lock()
			hp := HistogramPoint{
				Name:   s.name,
				Labels: s.labels,
				Bounds: append([]float64(nil), s.h.bounds...),
				Counts: append([]uint64(nil), s.h.counts...),
				Sum:    s.h.sum,
				Count:  s.h.n,
			}
			s.h.mu.Unlock()
			snap.Histograms = append(snap.Histograms, hp)
		}
	}
	return snap
}

// formatFloat renders a metric value the way the exposition format
// expects: shortest round-trip representation.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLE appends an le="bound" label to an already-rendered block.
func withLE(block, bound string) string {
	le := `le="` + bound + `"`
	if block == "" {
		return "{" + le + "}"
	}
	return block[:len(block)-1] + "," + le + "}"
}

// WriteText writes the registry in the Prometheus text exposition format
// (one # TYPE line per metric, series sorted by label block, cumulative
// histogram buckets). The output is deterministic: byte-identical
// registries produce byte-identical text.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := r.sorted()
	r.mu.Unlock()
	lastName := ""
	for _, s := range entries {
		if s.name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return err
			}
			lastName = s.name
		}
		switch s.kind {
		case counterKind:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatFloat(s.c.Value())); err != nil {
				return err
			}
		case gaugeKind:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatFloat(s.g.Value())); err != nil {
				return err
			}
		case histogramKind:
			s.h.mu.Lock()
			bounds := append([]float64(nil), s.h.bounds...)
			counts := append([]uint64(nil), s.h.counts...)
			sum, n := s.h.sum, s.h.n
			s.h.mu.Unlock()
			cum := uint64(0)
			for i, b := range bounds {
				cum += counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLE(s.labels, formatFloat(b)), cum); err != nil {
					return err
				}
			}
			cum += counts[len(bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLE(s.labels, "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatFloat(sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, n); err != nil {
				return err
			}
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json this program reads: the single
// source of the metric names, units, directions and bounds it emits and
// compares.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory run.sh runs the benchmark in, and the parent of this
// package's directory under go test.
func loadSpec() (*benchSpec, error) {
	var errs []error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", errors.Join(errs...))
}

// metrics returns the metric set a run emits: end-to-end metrics for a
// timed run, per-layer metrics for a traced one.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one emitted value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects values by name and fills in units from the spec.
// Every metric of the run's set starts at zero: a layer the workload
// never reaches (the result store of an in-process campaign, the
// decorated ports behind mixpd) reads 0.
type metricSet struct {
	units  map[string]string
	values map[string]float64
}

func newMetricSet(specs []metricSpec) *metricSet {
	m := &metricSet{units: map[string]string{}, values: map[string]float64{}}
	for _, s := range specs {
		m.units[s.Name] = s.Unit
		m.values[s.Name] = 0
	}
	return m
}

// set records a value. Names outside the set are a bug in this program:
// BENCHMARK.json and the code that measures must agree.
func (m *metricSet) set(name string, v float64) {
	if _, ok := m.units[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in BENCHMARK.json", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
}

// setAll records every value of vals.
func (m *metricSet) setAll(vals map[string]float64) {
	for n, v := range vals {
		m.set(n, v)
	}
}

func (m *metricSet) result() map[string]metric {
	out := make(map[string]metric, len(m.values))
	for n, v := range m.values {
		out[n] = metric{Value: v, Unit: m.units[n]}
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples beyond it:
// the 11th-largest sample (p95 at n=200, p67 at n=30), or the largest
// when there are fewer than 11.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s) < 11 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

// quartiles returns the first quartile, median and third quartile with
// the method of Python's statistics.quantiles(xs, n=4) (exclusive).
// Fewer than two samples give that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// safeName turns a suite benchmark name into a metric-name component:
// lower case, with anything outside [a-z0-9_.-] replaced by '-'.
func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + 'a' - 'A'
		}
		return '-'
	}, s)
}

package verify

import (
	"fmt"
	"sync"
)

// The paper positions the verification library as "a single point for
// providing verification extensions so that new metrics can be added".
// This file is that extension point: a custom metric registers a name and
// an error function, and every consumer - Compute, Check, the harness's
// metric clause - resolves it exactly like a built-in.

// MetricFunc computes an error value over a reference and a candidate
// output of equal non-zero length (both guaranteed by the caller). Lower
// must mean better, with 0 meaning exact agreement, so that one threshold
// comparison works for every metric. It must not modify either slice:
// the search passes the run cache's stored outputs, which every analysis
// shares.
type MetricFunc func(ref, got []float64) float64

// customBase offsets custom metric IDs past the built-ins.
const customBase Metric = 100

var (
	customMu    sync.RWMutex
	customByID  = map[Metric]registered{}
	customNames = map[string]Metric{}
)

type registered struct {
	name string
	fn   MetricFunc
}

// RegisterMetric installs a custom metric under the given name (the
// spelling harness configuration files will use) and returns its Metric
// id. Registering a name that collides with a built-in or an existing
// custom metric panics: registration happens at program start, and a
// collision is a bug, not a runtime condition.
func RegisterMetric(name string, fn MetricFunc) Metric {
	if fn == nil {
		panic("verify: RegisterMetric with nil function")
	}
	for _, n := range metricNames {
		if n == name {
			panic(fmt.Sprintf("verify: metric %q collides with a built-in", name))
		}
	}
	customMu.Lock()
	defer customMu.Unlock()
	if _, dup := customNames[name]; dup {
		panic(fmt.Sprintf("verify: metric %q already registered", name))
	}
	id := customBase + Metric(len(customByID))
	customByID[id] = registered{name: name, fn: fn}
	customNames[name] = id
	return id
}

// lookupCustom resolves a custom metric id.
func lookupCustom(m Metric) (registered, bool) {
	customMu.RLock()
	defer customMu.RUnlock()
	r, ok := customByID[m]
	return r, ok
}

// lookupCustomName resolves a custom metric by name.
func lookupCustomName(name string) (Metric, bool) {
	customMu.RLock()
	defer customMu.RUnlock()
	id, ok := customNames[name]
	return id, ok
}

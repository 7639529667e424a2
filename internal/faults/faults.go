// Package faults is a deterministic fault model for the simulated
// cluster: a seeded injector that decides, per (job, attempt), whether a
// node suffers a transient evaluation failure, crashes outright, or runs
// as a straggler. The paper's results tables contain empty grey cells
// precisely because real analyses die to timeouts and node failures; this
// package supplies reproducible failures so the harness's recovery
// machinery (retry with backoff, checkpoint/resume) can be exercised and
// tested deterministically.
//
// Every decision is a pure function of (plan seed, job key, attempt
// number): no wall clock, no shared RNG state, no dependence on execution
// order. Two campaigns with the same plan therefore inject byte-identical
// faults under any worker-pool size, which is what keeps the harness's
// metric snapshots worker-count-invariant even with failures present.
package faults

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// None means the attempt proceeds undisturbed.
	None Kind = iota
	// Transient is a transient evaluation failure: the analysis dies
	// mid-evaluation (a flaky run, an OOM kill) and the attempt's work is
	// lost, but retrying may succeed.
	Transient
	// Crash is a node (worker) crash: mechanically like Transient - the
	// attempt's work is lost - but counted separately, as a crashed node
	// is an infrastructure event where a flaky evaluation is a workload
	// one.
	Crash
	// Straggler is a slow node: the attempt completes correctly but its
	// simulated duration is multiplied by the plan's slowdown factor.
	Straggler
)

// String returns the kind's event/metric label.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Crash:
		return "crash"
	case Straggler:
		return "straggler"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Defaults for plan fields left zero.
const (
	// DefaultSlowdown is the straggler duration multiplier.
	DefaultSlowdown = 4.0
	// DefaultWindow bounds where transient/crash faults strike: the fault
	// fires at a paid evaluation drawn uniformly from [1, window]. An
	// analysis that finishes earlier dodges the fault (the node died
	// after the job's work was already safe).
	DefaultWindow = 16
)

// Plan configures the fault model for one campaign. The zero value
// injects nothing.
type Plan struct {
	// Seed drives all fault randomness, independently of the workload
	// seed.
	Seed int64
	// Transient, Crash, and Straggler are per-attempt probabilities of
	// each fault kind; their sum must not exceed 1.
	Transient float64
	Crash     float64
	Straggler float64
	// Slowdown is the straggler duration multiplier (0 = DefaultSlowdown).
	Slowdown float64
	// Window bounds the paid-evaluation index at which transient/crash
	// faults strike (0 = DefaultWindow).
	Window int
}

// Enabled reports whether the plan can inject anything.
func (p Plan) Enabled() bool {
	return p.Transient > 0 || p.Crash > 0 || p.Straggler > 0
}

// Validate rejects rates outside [0, 1] (NaN included), rate sums above
// 1, and nonsense slowdown/window values. A non-finite slowdown would
// carry into every straggler attempt's simulated seconds.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{{"transient", p.Transient}, {"crash", p.Crash}, {"straggler", p.Straggler}} {
		if !(r.rate >= 0 && r.rate <= 1) {
			return fmt.Errorf("faults: %s rate %g outside [0, 1]", r.name, r.rate)
		}
	}
	if sum := p.Transient + p.Crash + p.Straggler; sum > 1 {
		return fmt.Errorf("faults: rates sum to %g > 1", sum)
	}
	if math.IsNaN(p.Slowdown) || math.IsInf(p.Slowdown, 0) || p.Slowdown < 0 || (p.Slowdown > 0 && p.Slowdown < 1) {
		return fmt.Errorf("faults: slowdown %g must be finite and >= 1", p.Slowdown)
	}
	if p.Window < 0 {
		return fmt.Errorf("faults: window %d must be >= 0", p.Window)
	}
	return nil
}

// withDefaults fills zero fields.
func (p Plan) withDefaults() Plan {
	if p.Slowdown == 0 {
		p.Slowdown = DefaultSlowdown
	}
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	return p
}

// Fault is one injection decision for one attempt.
type Fault struct {
	// Kind is the fault kind (None when the attempt is undisturbed).
	Kind Kind
	// FailAfter is, for Transient/Crash, the 1-based paid evaluation at
	// which the attempt dies.
	FailAfter int
	// Slowdown is, for Straggler, the duration multiplier.
	Slowdown float64
}

// Injector draws faults from a plan. A nil *Injector is valid and never
// injects, so fault handling can be threaded unconditionally.
type Injector struct {
	plan Plan
}

// NewInjector validates the plan and returns an injector over it. A plan
// that injects nothing yields a nil injector.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Enabled() {
		return nil, nil
	}
	return &Injector{plan: plan.withDefaults()}, nil
}

// Plan returns the injector's (defaults-filled) plan; the zero Plan for a
// nil injector.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Draw decides the fault for one attempt of one job. key must identify
// the job stably across runs (the harness uses the config entry name plus
// analysis parameters); attempt is 1-based. The decision is a pure
// function of (plan seed, key, attempt), so it is identical for any
// worker count, any submission order, and across a checkpoint/resume
// boundary.
func (in *Injector) Draw(key string, attempt int) Fault {
	if in == nil {
		return Fault{}
	}
	u := in.uniform(key, attempt, "kind")
	p := in.plan
	switch {
	case u < p.Transient:
		return Fault{Kind: Transient, FailAfter: in.failAfter(key, attempt)}
	case u < p.Transient+p.Crash:
		return Fault{Kind: Crash, FailAfter: in.failAfter(key, attempt)}
	case u < p.Transient+p.Crash+p.Straggler:
		return Fault{Kind: Straggler, Slowdown: p.Slowdown}
	}
	return Fault{}
}

// failAfter draws the evaluation index a transient/crash fault strikes at.
func (in *Injector) failAfter(key string, attempt int) int {
	return 1 + int(in.uniform(key, attempt, "failat")*float64(in.plan.Window))
}

// uniform hashes (seed, key, attempt, tag) to a uniform float64 in [0, 1).
func (in *Injector) uniform(key string, attempt int, tag string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%s", in.plan.Seed, key, attempt, tag)
	// Top 53 bits give a uniform dyadic rational in [0, 1).
	return float64(h.Sum64()>>11) / (1 << 53)
}

// ParseSpec parses the CLI fault specification: comma-separated key=value
// pairs, e.g. "transient=0.2,crash=0.05,straggler=0.1,slowdown=4,seed=7".
// Keys: transient, crash, straggler (rates in [0,1]), slowdown (>= 1),
// window (positive int), seed (int64). The result is validated.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: bad field %q, want key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed", "window":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad %s %q: %w", key, val, err)
			}
			if key == "seed" {
				p.Seed = n
			} else {
				p.Window = int(n)
			}
		case "transient", "crash", "straggler", "slowdown":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad %s %q: %w", key, val, err)
			}
			switch key {
			case "transient":
				p.Transient = f
			case "crash":
				p.Crash = f
			case "straggler":
				p.Straggler = f
			case "slowdown":
				p.Slowdown = f
			}
		default:
			return Plan{}, fmt.Errorf("faults: unknown field %q (want transient, crash, straggler, slowdown, window, or seed)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

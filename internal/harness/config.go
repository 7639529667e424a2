// Package harness is the reproduction of the paper's test harness: the
// component that deploys benchmarks and analyses them under a
// user-provided YAML configuration (Listing 4). The original is a Python
// script; this port keeps its contract - a configuration file describes
// how to build, run, and verify each benchmark and which analysis to
// apply - and its plugin interface: an analysis is a named component the
// harness invokes with the deployed benchmark, and new analyses register
// themselves without harness changes.
//
// Build and clean commands are validated and recorded, not executed: in
// this reproduction a "build" is the selection of the Go port named by the
// bin clause, so the commands serve as provenance (they are what the
// original suite would run).
package harness

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/mp"
	"repro/internal/search"
	"repro/internal/suite"
	"repro/internal/verify"
	"repro/internal/yamlite"
)

// AnalysisSpec is the analysis clause of one benchmark entry.
type AnalysisSpec struct {
	// ID is the clause key (e.g. "floatsmith").
	ID string
	// Name is the registered plugin name (e.g. "floatSmith").
	Name string
	// Algorithm is the search strategy (CB, CM, DD, HR, HC, GA; the
	// paper's configs also accept the long name "ddebug").
	Algorithm string
	// Threshold is the quality bound configurations must meet.
	Threshold float64
	// Precisions is the campaign-scoped precision ladder (nil: the
	// default double/single two-level study).
	Precisions mp.Ladder
	// Objective selects threshold-only search or Pareto-front recording.
	Objective search.Objective
}

// OutputSpec is the output clause: how the original program names its
// output file.
type OutputSpec struct {
	Option string
	Name   string
}

// Spec is one benchmark entry of a harness configuration file.
type Spec struct {
	// Name is the entry key (the benchmark's config name).
	Name string
	// BuildDir, Build, and Clean record the original build instructions.
	BuildDir string
	Build    []string
	Clean    []string
	// Analysis selects and parameterises the analysis plugin.
	Analysis AnalysisSpec
	// Output describes the program's output file.
	Output OutputSpec
	// Metric is the verification metric.
	Metric verify.Metric
	// Bin names the executable; the harness resolves it to a suite
	// benchmark.
	Bin string
	// Copy lists run dependencies (binary and input files).
	Copy []string
	// Args is the executable invocation command line.
	Args string
}

// DefaultThreshold is used when the analysis clause omits one: the
// kernel-study threshold of the paper's Table III.
const DefaultThreshold = 1e-8

// algorithmAliases maps the long names the paper's configs use to the
// table abbreviations.
var algorithmAliases = map[string]string{
	"combinational": "CB",
	"compositional": "CM",
	"ddebug":        "DD",
	"deltadebug":    "DD",
	"hierarchical":  "HR",
	"hiercomp":      "HC",
	"genetic":       "GA",
	"greedy":        "GP",
}

// CanonicalAlgorithm resolves an algorithm spelling to its abbreviation.
// An unknown spelling comes back with the full menu - abbreviations
// (extension strategies included) and the long names the paper's configs
// use - so a typo is fixable from the error alone.
func CanonicalAlgorithm(name string) (string, error) {
	if a, ok := algorithmAliases[name]; ok {
		return a, nil
	}
	switch name {
	case "CB", "CM", "DD", "HR", "HC", "GA", "GP":
		return name, nil
	}
	longNames := make([]string, 0, len(algorithmAliases))
	for alias := range algorithmAliases {
		longNames = append(longNames, alias)
	}
	sort.Strings(longNames)
	return "", fmt.Errorf("harness: unknown algorithm %q (valid: %s; long names: %s)",
		name, search.ValidAlgorithmList(), strings.Join(longNames, ", "))
}

// Campaign is a parsed configuration document: the benchmark entries
// plus the campaign-wide fault model and retry policy, if the document
// carries a faults clause.
type Campaign struct {
	Specs  []Spec
	Faults faults.Plan
	Retry  RetryPolicy
}

// ParseConfig parses a harness configuration document into its benchmark
// entries, in document order. A faults clause, if present, is validated
// and dropped; use ParseCampaign to keep it.
func ParseConfig(src string) ([]Spec, error) {
	c, err := ParseCampaign(src)
	if err != nil {
		return nil, err
	}
	return c.Specs, nil
}

// ParseCampaign parses a harness configuration document. The reserved
// top-level key "faults" configures the campaign's fault model and retry
// policy (Listing 4 extended):
//
//	faults:
//	  seed: 7
//	  transient: 0.2
//	  crash: 0.05
//	  straggler: 0.1
//	  slowdown: 4
//	  window: 16
//	  max_retries: 3
//	  backoff_base: 30
//	  backoff_factor: 2
//	  backoff_cap: 3600
//
// Every other top-level key is a benchmark entry.
func ParseCampaign(src string) (Campaign, error) {
	var c Campaign
	doc, err := yamlite.Parse(src)
	if err != nil {
		return c, err
	}
	for _, name := range doc.Keys() {
		entry, err := doc.GetMap(name)
		if err != nil {
			return c, err
		}
		if name == "faults" {
			if c.Faults, c.Retry, err = parseFaultsClause(entry); err != nil {
				return c, fmt.Errorf("harness: faults clause: %w", err)
			}
			continue
		}
		spec, err := parseSpec(name, entry)
		if err != nil {
			return c, fmt.Errorf("harness: entry %q: %w", name, err)
		}
		c.Specs = append(c.Specs, spec)
	}
	return c, nil
}

// parseFaultsClause reads the reserved faults clause.
func parseFaultsClause(m *yamlite.Map) (faults.Plan, RetryPolicy, error) {
	var p faults.Plan
	var r RetryPolicy
	for _, key := range m.Keys() {
		raw, _ := m.Get(key)
		switch key {
		case "seed", "window", "max_retries":
			n, err := clauseInt(raw)
			if err != nil {
				return p, r, fmt.Errorf("%s: %w", key, err)
			}
			switch key {
			case "seed":
				p.Seed = n
			case "window":
				p.Window = int(n)
			case "max_retries":
				r.MaxAttempts = int(n)
			}
		case "transient", "crash", "straggler", "slowdown", "backoff_base", "backoff_factor", "backoff_cap":
			f, err := clauseFloat(raw)
			if err != nil {
				return p, r, fmt.Errorf("%s: %w", key, err)
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
			case "backoff_base":
				r.BaseSeconds = f
			case "backoff_factor":
				r.Factor = f
			case "backoff_cap":
				r.MaxSeconds = f
			}
		default:
			return p, r, fmt.Errorf("unknown key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return p, r, err
	}
	return p, r, nil
}

// clauseFloat coerces a yamlite scalar to a finite float64. NaN and the
// infinities are refused: NaN passes every range check, and either one
// would reach results and archives that JSON cannot encode.
func clauseFloat(raw any) (float64, error) {
	var f float64
	switch v := raw.(type) {
	case float64:
		f = v
	case int64:
		f = float64(v)
	case string:
		var err error
		if f, err = strconv.ParseFloat(v, 64); err != nil {
			return 0, fmt.Errorf("bad number %q", v)
		}
	default:
		return 0, fmt.Errorf("bad value type %T", raw)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("number %g is not finite", f)
	}
	return f, nil
}

// clauseInt coerces a yamlite scalar to int64.
func clauseInt(raw any) (int64, error) {
	switch v := raw.(type) {
	case int64:
		return v, nil
	case string:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad integer %q", v)
		}
		return n, nil
	}
	return 0, fmt.Errorf("bad value type %T", raw)
}

func parseSpec(name string, m *yamlite.Map) (Spec, error) {
	s := Spec{Name: name}
	var err error
	if s.BuildDir, err = m.GetString("build_dir"); err != nil {
		return s, err
	}
	if s.Build, err = m.GetStrings("build"); err != nil {
		return s, err
	}
	if s.Clean, err = m.GetStrings("clean"); err != nil {
		return s, err
	}
	if s.Bin, err = m.GetString("bin"); err != nil {
		return s, err
	}
	metricName, err := m.GetString("metric")
	if err != nil {
		return s, err
	}
	if s.Metric, err = verify.ParseMetric(metricName); err != nil {
		return s, err
	}
	if s.Copy, err = m.GetStrings("copy"); err != nil {
		return s, err
	}
	if s.Args, err = m.GetString("args"); err != nil {
		return s, err
	}
	if out, err := m.GetMap("output"); err == nil {
		if s.Output.Option, err = out.GetString("option"); err != nil {
			return s, err
		}
		if s.Output.Name, err = out.GetString("name"); err != nil {
			return s, err
		}
	}

	analysis, err := m.GetMap("analysis")
	if err != nil {
		return s, err
	}
	if analysis.Len() != 1 {
		return s, fmt.Errorf("analysis clause must name exactly one plugin, has %d", analysis.Len())
	}
	id := analysis.Keys()[0]
	plug, err := analysis.GetMap(id)
	if err != nil {
		return s, err
	}
	s.Analysis.ID = id
	if s.Analysis.Name, err = plug.GetString("name"); err != nil {
		return s, err
	}
	s.Analysis.Threshold = DefaultThreshold
	if extra, err := plug.GetMap("extra_args"); err == nil {
		algo, err := extra.GetString("algorithm")
		if err != nil {
			return s, err
		}
		if s.Analysis.Algorithm, err = CanonicalAlgorithm(algo); err != nil {
			return s, err
		}
		if raw, ok := extra.Get("threshold"); ok {
			if s.Analysis.Threshold, err = clauseFloat(raw); err != nil {
				return s, fmt.Errorf("threshold: %w", err)
			}
			// A threshold is an error bound configurations must stay
			// under; zero or negative admits nothing and silently turns
			// every search into a foregone failure.
			if s.Analysis.Threshold <= 0 {
				return s, fmt.Errorf("threshold %g must be positive", s.Analysis.Threshold)
			}
		}
		if raw, ok := extra.Get("precisions"); ok {
			str, isStr := raw.(string)
			if !isStr {
				return s, fmt.Errorf("bad precisions type %T", raw)
			}
			ladder, err := mp.ParseLadder(str)
			if err != nil {
				return s, err
			}
			// The default ladder stays nil so fingerprints, seeds, and
			// journals of two-level campaigns are untouched.
			if !ladder.IsDefault() {
				s.Analysis.Precisions = ladder
			}
		}
		if raw, ok := extra.Get("objective"); ok {
			str, isStr := raw.(string)
			if !isStr {
				return s, fmt.Errorf("bad objective type %T", raw)
			}
			if s.Analysis.Objective, err = search.ParseObjective(str); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// Resolve maps the spec's bin clause to its suite benchmark and checks the
// metric matches the benchmark's declared one.
func (s Spec) Resolve() (bench.Benchmark, error) {
	b, err := suite.Lookup(s.Bin)
	if err != nil {
		return nil, err
	}
	if b.Metric() != s.Metric {
		return nil, fmt.Errorf("harness: %s: config metric %v, benchmark verifies with %v",
			s.Name, s.Metric, b.Metric())
	}
	return b, nil
}

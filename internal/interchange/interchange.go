// Package interchange implements the JSON interchange format through
// which FloatSmith integrates tools (Section I: "FloatSmith facilitates
// the integration of tools by providing a JSON-based interchange format").
// It serialises the three artifacts that cross tool boundaries:
//
//   - the search space a type analysis produces (variable inventory plus
//     type-change sets), consumed by search tools;
//   - precision configurations, handed from a search tool to a source
//     transformer;
//   - analysis reports, collected by the harness.
//
// The format is self-describing and versioned, so a non-Go tool (the
// original Python harness, a custom search strategy) can produce or
// consume the same documents.
package interchange

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/mp"
	"repro/internal/typedep"
)

// FormatVersion identifies the schema of documents this package writes.
const FormatVersion = 1

// VariableDoc is one tunable variable of a search-space document.
type VariableDoc struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Unit string `json:"unit"`
	Kind string `json:"kind"`
	// Cluster is the index of the variable's type-change set.
	Cluster int `json:"cluster"`
}

// SpaceDoc is a serialised search space: the artifact Typeforge hands to
// the search tool.
type SpaceDoc struct {
	Version   int           `json:"version"`
	Benchmark string        `json:"benchmark"`
	Metric    string        `json:"metric"`
	Variables []VariableDoc `json:"variables"`
	// Clusters lists each type-change set's member variable IDs.
	Clusters [][]int `json:"clusters"`
}

// ExportSpace serialises a benchmark's search space.
func ExportSpace(b bench.Benchmark) SpaceDoc {
	g := b.Graph()
	doc := SpaceDoc{
		Version:   FormatVersion,
		Benchmark: b.Name(),
		Metric:    b.Metric().String(),
	}
	clusterOf := make(map[mp.VarID]int)
	for _, c := range g.Clusters() {
		members := make([]int, len(c.Members))
		for i, m := range c.Members {
			members[i] = int(m)
			clusterOf[m] = c.Index
		}
		doc.Clusters = append(doc.Clusters, members)
	}
	for _, v := range g.Vars() {
		doc.Variables = append(doc.Variables, VariableDoc{
			ID:      int(v.ID),
			Name:    v.Name,
			Unit:    v.Unit,
			Kind:    v.Kind.String(),
			Cluster: clusterOf[v.ID],
		})
	}
	return doc
}

// WriteSpace writes a search-space document as indented JSON.
func WriteSpace(w io.Writer, b bench.Benchmark) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ExportSpace(b))
}

// Validate checks a space document's internal consistency: version, ID
// density, variable kinds and names, and the cluster partition. A
// document it accepts always builds a Graph.
func (d SpaceDoc) Validate() error {
	if d.Version != FormatVersion {
		return fmt.Errorf("interchange: unsupported version %d (want %d)", d.Version, FormatVersion)
	}
	n := len(d.Variables)
	seen := make([]bool, n)
	// names declares the variables as Graph will: a typedep.Graph refuses
	// a second variable under one (unit, name) key.
	names := typedep.NewGraph()
	for i, v := range d.Variables {
		if v.ID < 0 || v.ID >= n {
			return fmt.Errorf("interchange: variable %d has out-of-range id %d", i, v.ID)
		}
		if seen[v.ID] {
			return fmt.Errorf("interchange: duplicate variable id %d", v.ID)
		}
		seen[v.ID] = true
		kind, err := parseKind(v.Kind)
		if err != nil {
			return err
		}
		if _, dup := names.Lookup(v.Name, v.Unit); dup {
			return fmt.Errorf("interchange: variable %d duplicates the name %s::%s", v.ID, v.Unit, v.Name)
		}
		names.Add(v.Name, v.Unit, kind)
	}
	covered := make([]bool, n)
	for ci, members := range d.Clusters {
		if len(members) == 0 {
			return fmt.Errorf("interchange: cluster %d is empty", ci)
		}
		for _, m := range members {
			if m < 0 || m >= n {
				return fmt.Errorf("interchange: cluster %d references variable %d", ci, m)
			}
			if covered[m] {
				return fmt.Errorf("interchange: variable %d in two clusters", m)
			}
			covered[m] = true
		}
	}
	for id, ok := range covered {
		if !ok {
			return fmt.Errorf("interchange: variable %d not in any cluster", id)
		}
	}
	for _, v := range d.Variables {
		if v.Cluster < 0 || v.Cluster >= len(d.Clusters) {
			return fmt.Errorf("interchange: variable %d names cluster %d of %d", v.ID, v.Cluster, len(d.Clusters))
		}
		found := false
		for _, m := range d.Clusters[v.Cluster] {
			if m == v.ID {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("interchange: variable %d not a member of its cluster %d", v.ID, v.Cluster)
		}
	}
	return nil
}

// Graph reconstructs a type-dependence graph from a space document,
// allowing an externally produced space to drive the Go search layer.
func (d SpaceDoc) Graph() (*typedep.Graph, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g := typedep.NewGraph()
	// Variables must be declared in ID order for the dense mapping.
	byID := make([]VariableDoc, len(d.Variables))
	for _, v := range d.Variables {
		byID[v.ID] = v
	}
	for _, v := range byID {
		kind, _ := parseKind(v.Kind) // Validate accepted every kind
		g.Add(v.Name, v.Unit, kind)
	}
	for _, members := range d.Clusters {
		for i := 1; i < len(members); i++ {
			g.Connect(mp.VarID(members[0]), mp.VarID(members[i]))
		}
	}
	return g, nil
}

func parseKind(s string) (typedep.Kind, error) {
	switch s {
	case "scalar":
		return typedep.Scalar, nil
	case "array":
		return typedep.ArrayVar, nil
	case "param":
		return typedep.Param, nil
	case "pointer":
		return typedep.Pointer, nil
	default:
		return 0, fmt.Errorf("interchange: unknown variable kind %q", s)
	}
}

// ConfigDoc is a serialised precision configuration: the artifact a
// search tool hands to the source transformer.
type ConfigDoc struct {
	Version   int    `json:"version"`
	Benchmark string `json:"benchmark"`
	// Single lists the variable IDs demoted to single precision; all
	// other variables stay double.
	Single []int `json:"single"`
}

// ExportConfig serialises a configuration.
func ExportConfig(benchmark string, cfg bench.Config) ConfigDoc {
	doc := ConfigDoc{Version: FormatVersion, Benchmark: benchmark, Single: []int{}}
	for i, p := range cfg {
		if p == mp.F32 {
			doc.Single = append(doc.Single, i)
		}
	}
	return doc
}

// Config reconstructs the configuration for a program with n variables.
func (d ConfigDoc) Config(n int) (bench.Config, error) {
	if d.Version != FormatVersion {
		return nil, fmt.Errorf("interchange: unsupported version %d", d.Version)
	}
	cfg := bench.NewConfig(n)
	for _, id := range d.Single {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("interchange: config names variable %d of %d", id, n)
		}
		cfg[id] = mp.F32
	}
	return cfg, nil
}

// ReportDoc is a serialised analysis report: the artifact the harness
// collects per (benchmark, algorithm, threshold) job.
type ReportDoc struct {
	Version   int     `json:"version"`
	Benchmark string  `json:"benchmark"`
	Algorithm string  `json:"algorithm"`
	Threshold float64 `json:"threshold"`
	Evaluated int     `json:"evaluated"`
	// Speedup and Quality are null for analyses without a result (JSON
	// cannot carry NaN).
	Speedup   *float64 `json:"speedup"`
	Quality   *float64 `json:"quality"`
	Found     bool     `json:"found"`
	TimedOut  bool     `json:"timed_out"`
	Demoted   int      `json:"demoted"`
	Variables int      `json:"variables"`
	Clusters  int      `json:"clusters"`
	// Single lists the demoted variable IDs of the converged
	// configuration - the analysis artifact.
	Single []int `json:"single"`
}

// ExportReport serialises a harness report.
func ExportReport(r harness.Report) ReportDoc {
	return ReportDoc{
		Version:   FormatVersion,
		Benchmark: r.Benchmark,
		Algorithm: r.Algorithm,
		Threshold: r.Threshold,
		Evaluated: r.Evaluated,
		Speedup:   finiteOrNull(r.Speedup),
		Quality:   finiteOrNull(r.Quality),
		Found:     r.Found,
		TimedOut:  r.TimedOut,
		Demoted:   r.Demoted,
		Variables: r.Variables,
		Clusters:  r.Clusters,
		Single:    ExportConfig(r.Benchmark, r.Config).Single,
	}
}

// finiteOrNull boxes a finite value and maps NaN/Inf to JSON null.
func finiteOrNull(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// WriteReports writes a JSON array of reports.
func WriteReports(w io.Writer, reports []harness.Report) error {
	docs := make([]ReportDoc, len(reports))
	for i, r := range reports {
		docs[i] = ExportReport(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// ReadSpace parses a space document and refuses any data after it.
func ReadSpace(r io.Reader) (SpaceDoc, error) {
	var doc SpaceDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return SpaceDoc{}, fmt.Errorf("interchange: decoding space: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return SpaceDoc{}, errors.New("interchange: decoding space: data after the document")
	}
	if err := doc.Validate(); err != nil {
		return SpaceDoc{}, err
	}
	return doc, nil
}

// ReadConfig parses a configuration document and refuses any data after it.
func ReadConfig(r io.Reader) (ConfigDoc, error) {
	var doc ConfigDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return ConfigDoc{}, fmt.Errorf("interchange: decoding config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return ConfigDoc{}, errors.New("interchange: decoding config: data after the document")
	}
	return doc, nil
}

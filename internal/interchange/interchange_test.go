package interchange

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/mp"
	"repro/internal/suite"
)

func TestExportSpaceRoundTrip(t *testing.T) {
	for _, b := range suite.All() {
		doc := ExportSpace(b)
		if err := doc.Validate(); err != nil {
			t.Fatalf("%s: exported space invalid: %v", b.Name(), err)
		}
		if doc.Benchmark != b.Name() || doc.Metric != b.Metric().String() {
			t.Errorf("%s: identity fields wrong", b.Name())
		}
		g, err := doc.Graph()
		if err != nil {
			t.Fatalf("%s: reimport: %v", b.Name(), err)
		}
		orig := b.Graph()
		if g.NumVars() != orig.NumVars() || g.NumClusters() != orig.NumClusters() {
			t.Errorf("%s: reimported %d/%d vars/clusters, want %d/%d",
				b.Name(), g.NumVars(), g.NumClusters(), orig.NumVars(), orig.NumClusters())
		}
		// The partition must be identical, not just equinumerous.
		oc := orig.Clusters()
		rc := g.Clusters()
		for i := range oc {
			if len(oc[i].Members) != len(rc[i].Members) {
				t.Fatalf("%s: cluster %d size differs", b.Name(), i)
			}
			for j := range oc[i].Members {
				if oc[i].Members[j] != rc[i].Members[j] {
					t.Fatalf("%s: cluster %d member %d differs", b.Name(), i, j)
				}
			}
		}
	}
}

func TestWriteReadSpaceJSON(t *testing.T) {
	b, _ := suite.Lookup("hydro-1d")
	var buf bytes.Buffer
	if err := WriteSpace(&buf, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"benchmark": "hydro-1d"`) {
		t.Error("JSON missing benchmark field")
	}
	doc, err := ReadSpace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Variables) != 6 || len(doc.Clusters) != 2 {
		t.Errorf("space = %d vars / %d clusters", len(doc.Variables), len(doc.Clusters))
	}
}

func TestSpaceValidation(t *testing.T) {
	base := func() SpaceDoc {
		b, _ := suite.Lookup("iccg")
		return ExportSpace(b)
	}
	cases := map[string]func(*SpaceDoc){
		"bad version":       func(d *SpaceDoc) { d.Version = 99 },
		"dup id":            func(d *SpaceDoc) { d.Variables[1].ID = 0 },
		"id out of range":   func(d *SpaceDoc) { d.Variables[0].ID = 17 },
		"empty cluster":     func(d *SpaceDoc) { d.Clusters = append(d.Clusters, []int{}) },
		"overlap":           func(d *SpaceDoc) { d.Clusters = [][]int{{0, 1}, {1}} },
		"uncovered":         func(d *SpaceDoc) { d.Clusters = [][]int{{0}} },
		"bad cluster index": func(d *SpaceDoc) { d.Variables[0].Cluster = 5 },
		"wrong cluster":     func(d *SpaceDoc) { d.Variables[0].Cluster = 1; d.Variables[1].Cluster = 0 },
		"dup name":          func(d *SpaceDoc) { d.Variables[1].Name, d.Variables[1].Unit = d.Variables[0].Name, d.Variables[0].Unit },
		"unknown kind":      func(d *SpaceDoc) { d.Variables[1].Kind = "tensor" },
	}
	for name, mutate := range cases {
		d := base()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}

	// Names may contain "::": unit "a::b" with name "c" and unit "a" with
	// name "b::c" are two distinct variables, so the document is valid and
	// builds a graph holding both.
	d := base()
	d.Variables[0].Name, d.Variables[0].Unit = "c", "a::b"
	d.Variables[1].Name, d.Variables[1].Unit = "b::c", "a"
	g, err := d.Graph()
	if err != nil {
		t.Fatalf("unit::name lookalikes refused: %v", err)
	}
	first, ok0 := g.Lookup("c", "a::b")
	second, ok1 := g.Lookup("b::c", "a")
	if !ok0 || !ok1 || first == second {
		t.Errorf("lookalikes resolve to %d (%v) and %d (%v), want two distinct variables", first, ok0, second, ok1)
	}
}

// TestReadRefusesTrailingData checks that each reader takes exactly one
// document: bytes after it, other than white space, are refused.
func TestReadRefusesTrailingData(t *testing.T) {
	space := `{"version":1}`
	config := `{"version":1,"benchmark":"x","single":[0]}`
	for name, tail := range map[string]string{
		"trailing garbage": " trailing garbage",
		"two documents":    `{"version":2}`,
		"stray bracket":    "]",
		"stray brace":      "}",
		"second value":     " 1",
	} {
		if _, err := ReadSpace(strings.NewReader(space + tail)); err == nil {
			t.Errorf("ReadSpace accepted a document followed by %s", name)
		}
		if _, err := ReadConfig(strings.NewReader(config + tail)); err == nil {
			t.Errorf("ReadConfig accepted a document followed by %s", name)
		}
	}
	if _, err := ReadSpace(strings.NewReader(space + " \n\t\r\n")); err != nil {
		t.Errorf("ReadSpace refused trailing white space: %v", err)
	}
	if _, err := ReadConfig(strings.NewReader(config + "\n")); err != nil {
		t.Errorf("ReadConfig refused a trailing newline: %v", err)
	}
}

func TestGraphRejectsBadKind(t *testing.T) {
	b, _ := suite.Lookup("iccg")
	d := ExportSpace(b)
	d.Variables[0].Kind = "tensor"
	if _, err := d.Graph(); err == nil {
		t.Error("expected unknown-kind error")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := bench.NewConfig(5)
	cfg[1] = mp.F32
	cfg[4] = mp.F32
	doc := ExportConfig("x", cfg)
	if len(doc.Single) != 2 || doc.Single[0] != 1 || doc.Single[1] != 4 {
		t.Fatalf("doc = %+v", doc)
	}
	back, err := doc.Config(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg {
		if back[i] != cfg[i] {
			t.Errorf("config[%d] = %v, want %v", i, back[i], cfg[i])
		}
	}
	if _, err := doc.Config(3); err == nil {
		t.Error("expected out-of-range error")
	}
	doc.Version = 2
	if _, err := doc.Config(5); err == nil {
		t.Error("expected version error")
	}
}

func TestConfigJSONEmptySingleList(t *testing.T) {
	doc := ExportConfig("x", bench.NewConfig(3))
	var buf bytes.Buffer
	if err := WriteReports(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if doc.Single == nil {
		t.Error("Single should serialise as [], not null")
	}
}

func TestReportExport(t *testing.T) {
	r := harness.Report{
		Benchmark: "CFD", Algorithm: "DD", Threshold: 1e-6,
		Evaluated: 12, Speedup: 1.4, Quality: 1e-7,
		Found: true, Demoted: 100, Variables: 195, Clusters: 25,
	}
	var buf bytes.Buffer
	if err := WriteReports(&buf, []harness.Report{r}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{`"benchmark": "CFD"`, `"algorithm": "DD"`, `"evaluated": 12`} {
		if !strings.Contains(s, frag) {
			t.Errorf("report JSON missing %q", frag)
		}
	}
}

func TestReadConfig(t *testing.T) {
	doc, err := ReadConfig(strings.NewReader(`{"version":1,"benchmark":"x","single":[0,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := doc.Config(3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Singles() != 2 {
		t.Errorf("singles = %d", cfg.Singles())
	}
	if _, err := ReadConfig(strings.NewReader("{")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := ReadSpace(strings.NewReader("{")); err == nil {
		t.Error("expected decode error")
	}
}

func TestExternallyAuthoredSpaceDrivesSearch(t *testing.T) {
	// A space document written by hand (as an external tool would produce
	// it) must reconstruct into a usable graph.
	src := `{
		"version": 1,
		"benchmark": "external",
		"metric": "MAE",
		"variables": [
			{"id": 0, "name": "a", "unit": "f", "kind": "array", "cluster": 0},
			{"id": 1, "name": "b", "unit": "f", "kind": "param", "cluster": 0},
			{"id": 2, "name": "c", "unit": "g", "kind": "scalar", "cluster": 1}
		],
		"clusters": [[0, 1], [2]]
	}`
	doc, err := ReadSpace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := doc.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.SameCluster(0, 1) || g.SameCluster(0, 2) {
		t.Error("reconstructed clustering wrong")
	}
}

func TestNaNQualityExportsAsNull(t *testing.T) {
	// JSON has no NaN: a timed-out report's metrics must serialise as
	// null, not corrupt the document.
	r := harness.Report{Benchmark: "SRAD", Algorithm: "DD", TimedOut: true,
		Speedup: math.NaN(), Quality: math.NaN()}
	var buf bytes.Buffer
	if err := WriteReports(&buf, []harness.Report{r}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"speedup": null`) || !strings.Contains(s, `"quality": null`) {
		t.Errorf("NaN metrics not null:\n%s", s)
	}
}

func TestReportExportIncludesArtifact(t *testing.T) {
	cfg := bench.NewConfig(4)
	cfg[2] = mp.F32
	r := harness.Report{Benchmark: "x", Algorithm: "DD", Found: true,
		Speedup: 1.2, Demoted: 1, Variables: 4, Config: cfg}
	doc := ExportReport(r)
	if len(doc.Single) != 1 || doc.Single[0] != 2 {
		t.Errorf("artifact = %v, want [2]", doc.Single)
	}
}

func TestConfigRoundTripProperty(t *testing.T) {
	f := func(mask []bool) bool {
		cfg := bench.NewConfig(len(mask))
		for i, m := range mask {
			if m {
				cfg[i] = mp.F32
			}
		}
		doc := ExportConfig("p", cfg)
		back, err := doc.Config(len(mask))
		if err != nil {
			return false
		}
		for i := range cfg {
			if back[i] != cfg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

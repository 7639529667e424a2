package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: SomeCPU
BenchmarkCampaignLadder2-8     	       5	  99000000 ns/op	         1.684 hydro-DD-speedup	 1000000 B/op	    8000 allocs/op
BenchmarkCampaignLadder2-8     	       5	 101000000 ns/op	         1.684 hydro-DD-speedup	 1000000 B/op	    8000 allocs/op
BenchmarkCampaignLadder3-8     	       5	 260000000 ns/op	         1.684 hydro-DD-speedup	 2600000 B/op	   20000 allocs/op
BenchmarkTapeProbe/fast-8      	12345678	        88.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	records, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Benchmark: "BenchmarkCampaignLadder2", Samples: 2, NsPerOp: 100000000, BytesPerOp: 1000000, AllocsPerOp: 8000},
		{Benchmark: "BenchmarkCampaignLadder3", Samples: 1, NsPerOp: 260000000, BytesPerOp: 2600000, AllocsPerOp: 20000},
		{Benchmark: "BenchmarkTapeProbe/fast", Samples: 1, NsPerOp: 88.5},
	}
	if !reflect.DeepEqual(records, want) {
		t.Errorf("Parse =\n%+v\nwant\n%+v", records, want)
	}
}

func TestParseWithoutBenchmem(t *testing.T) {
	records, err := Parse(strings.NewReader("BenchmarkX-4   100   1234 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Benchmark: "BenchmarkX", Samples: 1, NsPerOp: 1234}}
	if !reflect.DeepEqual(records, want) {
		t.Errorf("Parse = %+v, want %+v", records, want)
	}
}

func TestRunWritesArtifactAndComparison(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH.json")
	cmp := filepath.Join(dir, "comparison.md")
	// Pre-seed the comparison file with other sections plus a stale pair
	// section; the update must replace only the pair sections.
	seed := "## Table III\n\n| a |\n\n" + pairs[0].header + "\n\nstale\n\n## Table IV\n\n| b |\n"
	if err := os.WriteFile(cmp, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(out, cmp, []string{in}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if len(rep.Records) != 3 {
		t.Errorf("artifact has %d records, want 3", len(rep.Records))
	}

	text, err := os.ReadFile(cmp)
	if err != nil {
		t.Fatal(err)
	}
	got := string(text)
	for _, want := range []string{
		"## Table III", "## Table IV", // surrounding sections survive
		pairs[0].header,
		"| f64,f32 (2 rungs) | 100000000 |",
		"| f64,f32,bf16 (3 rungs) | 260000000 |",
		"**2.60x**",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("comparison.md missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "stale") {
		t.Errorf("stale pair section survived the update:\n%s", got)
	}
	for _, p := range pairs {
		if strings.Count(got, p.header) != 1 {
			t.Errorf("pair section %q duplicated:\n%s", p.header, got)
		}
	}
}

func TestRunRequiresPairForComparison(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte("BenchmarkX-4   100   1234 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(filepath.Join(dir, "out.json"), filepath.Join(dir, "cmp.md"), []string{in})
	if err == nil || !strings.Contains(err.Error(), "pair") {
		t.Errorf("missing pair error = %v", err)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(dir, "out.json"), "", []string{in}); err == nil {
		t.Error("empty input accepted")
	}
}

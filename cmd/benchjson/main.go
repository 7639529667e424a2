// Command benchjson converts `go test -bench` output into the repo's
// machine-readable perf-trajectory artifact, so speed claims are
// tracked as data across PRs instead of living in commit messages.
//
// It reads benchmark output on stdin (or from file arguments), parses
// every result line into {benchmark, ns/op, B/op, allocs/op}, averages
// repeated runs of the same benchmark (-count=N), and writes one JSON
// document of records sorted by benchmark name:
//
//	go test -run '^$' -bench . -benchmem -count=5 ./... | benchjson -out BENCH_8.json
//
// With -comparison, it also maintains the benchmark-pair sections of the
// comparison artifact - today the "Ladder depth cost" pair
// (BenchmarkCampaignLadder2 / BenchmarkCampaignLadder3) side by side
// with the measured cost ratio - replacing each section in place when it
// exists and appending it otherwise, so `make tables` regenerating the
// rest of the file and `make bench` refreshing these sections commute.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark's aggregated result. Repeated runs of the
// same benchmark (-count) are averaged; Samples says over how many.
type Record struct {
	Benchmark   string  `json:"benchmark"`
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the artifact's top-level shape.
type Report struct {
	Records []Record `json:"records"`
}

func main() {
	var (
		out        = flag.String("out", "-", `output path for the JSON artifact ("-" = stdout)`)
		comparison = flag.String("comparison", "", "markdown file whose benchmark-pair sections to update")
	)
	flag.Parse()
	if err := run(*out, *comparison, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, comparison string, args []string) error {
	var input io.Reader = os.Stdin
	if len(args) > 0 {
		var readers []io.Reader
		for _, path := range args {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			readers = append(readers, f)
		}
		input = io.MultiReader(readers...)
	}
	records, err := Parse(input)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("no benchmark result lines in input")
	}
	data, err := json.MarshalIndent(Report{Records: records}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	if comparison != "" {
		if err := updateComparison(comparison, records); err != nil {
			return err
		}
	}
	return nil
}

// resultLine matches one `go test -bench` result line up to its ns/op
// column; the GOMAXPROCS suffix (-8) is stripped so the trajectory
// compares across machines. The -benchmem columns are matched
// separately (memLine, allocsLine) because b.ReportMetric custom
// metrics land between ns/op and B/op.
var (
	resultLine = regexp.MustCompile(
		`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	memLine    = regexp.MustCompile(`\s([\d.]+) B/op`)
	allocsLine = regexp.MustCompile(`\s(\d+) allocs/op`)
)

// Parse reads benchmark output and returns the aggregated records
// sorted by benchmark name. Non-result lines (headers, PASS/ok, test
// log output) are ignored.
func Parse(r io.Reader) ([]Record, error) {
	type sum struct {
		n                 int
		ns, bytes, allocs float64
	}
	sums := map[string]*sum{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := resultLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		s := sums[m[1]]
		if s == nil {
			s = &sum{}
			sums[m[1]] = s
		}
		s.n++
		s.ns += ns
		if mm := memLine.FindStringSubmatch(line); mm != nil {
			v, _ := strconv.ParseFloat(mm[1], 64)
			s.bytes += v
		}
		if am := allocsLine.FindStringSubmatch(line); am != nil {
			v, _ := strconv.ParseFloat(am[1], 64)
			s.allocs += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	records := make([]Record, 0, len(sums))
	for name, s := range sums {
		n := float64(s.n)
		records = append(records, Record{
			Benchmark:   name,
			Samples:     s.n,
			NsPerOp:     s.ns / n,
			BytesPerOp:  s.bytes / n,
			AllocsPerOp: s.allocs / n,
		})
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Benchmark < records[j].Benchmark })
	return records, nil
}

// A pairSpec is one maintained comparison section: an identical workload
// measured two ways, reported side by side with the ns/op ratio.
type pairSpec struct {
	header string
	intro  string
	// column is the table's first-column heading.
	column string
	// baseBench/baseLabel are the denominator of the ratio; otherBench/
	// otherLabel the numerator.
	baseBench, baseLabel   string
	otherBench, otherLabel string
	ratioLabel             string
}

// pairs lists the comparison sections `make bench` maintains (see
// bench_test.go for each benchmark pair's definition).
var pairs = []pairSpec{
	{
		header: "## Ladder depth cost",
		intro: "One kernel campaign (2 workers, shared run cache) over the paper's\n" +
			"two-level double/single axis vs the three-rung f64,f32,bf16 ladder:\n" +
			"the campaign-level price of one extra precision rung.\n",
		column:     "Precision ladder",
		baseBench:  "BenchmarkCampaignLadder2",
		baseLabel:  "f64,f32 (2 rungs)",
		otherBench: "BenchmarkCampaignLadder3",
		otherLabel: "f64,f32,bf16 (3 rungs)",
		ratioLabel: "Cost (3-rung / 2-rung)",
	},
}

// pairSection renders one side-by-side pair table.
func pairSection(p pairSpec, base, other Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n%s\n", p.header, p.intro)
	fmt.Fprintf(&b, "| %s | ns/op | B/op | allocs/op |\n", p.column)
	b.WriteString("|---|---|---|---|\n")
	row := func(label string, r Record) {
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %.0f |\n", label, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	row(p.baseLabel, base)
	row(p.otherLabel, other)
	fmt.Fprintf(&b, "\n%s: **%.2fx**\n", p.ratioLabel, other.NsPerOp/base.NsPerOp)
	return b.String()
}

// updateComparison rewrites the comparison file's pair sections from the
// parsed records: each is replaced in place when present and appended
// otherwise. Missing pair benchmarks are an error - the artifact must
// never silently report a stale pair.
func updateComparison(path string, records []Record) error {
	byName := map[string]Record{}
	for _, r := range records {
		byName[r.Benchmark] = r
	}
	existing, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	text := string(existing)
	for _, p := range pairs {
		base, okB := byName[p.baseBench]
		other, okO := byName[p.otherBench]
		if !okB || !okO {
			return fmt.Errorf("input lacks the %s / %s pair needed for -comparison", p.baseBench, p.otherBench)
		}
		section := pairSection(p, base, other)
		if start := strings.Index(text, p.header); start >= 0 {
			end := len(text)
			if next := strings.Index(text[start+len(p.header):], "\n## "); next >= 0 {
				end = start + len(p.header) + next + 1
			}
			text = text[:start] + section + text[end:]
		} else {
			if text != "" && !strings.HasSuffix(text, "\n") {
				text += "\n"
			}
			if text != "" {
				text += "\n"
			}
			text += section
		}
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

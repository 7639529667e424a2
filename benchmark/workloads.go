package main

import (
	_ "embed"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/suite"
)

// serviceCampaign is the campaign every service-store submission posts.
//
//go:embed service.yaml
var serviceCampaign string

// workload is one set of inputs the benchmark runs. In-process workloads
// carry a campaign source and run it through harness.ParseCampaign and
// harness.RunCampaign, the path `mixpbench -config` takes; the service
// workload drives the mixpd binary over loopback HTTP instead.
type workload struct {
	name     string
	campaign string // YAML source; empty for the service workload
}

func (w workload) inProcess() bool { return w.campaign != "" }

// Table III's strategies, and the three application strategies that
// finish well inside the simulated 24-hour budget (CM and HC run to the
// budget on the applications, ~10-70 s per job, which would leave too
// few samples per run).
var (
	kernelAlgorithms = []string{"CB", "CM", "DD", "HR", "HC", "GA"}
	appAlgorithms    = []string{"DD", "HR", "GA"}
)

// workloads lists every workload in the order a full set runs them.
var workloads = []workload{
	// Search-bound with heavy sharing: most evaluations are run-cache
	// hits, so strategy, evaluator and cache costs dominate.
	{"kernel-study", studyCampaign(suite.Kernels(), kernelAlgorithms, "")},
	// One extra rung doubles the paid work and runs the bf16 rounding
	// path; kernel-study bypasses both.
	{"kernel-ladder3", studyCampaign(suite.Kernels(), kernelAlgorithms, "f64,f32,bf16")},
	// Execution-bound with little sharing: the application ports dominate.
	{"app-study", studyCampaign(suite.Apps(), appAlgorithms, "")},
	// HTTP, engine, the run cache's durable tier and the result store,
	// with writes beside reads, in a synthetic mix (see runService).
	{name: "service-store"},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// studyCampaign writes one campaign entry per (benchmark, strategy) at the
// kernel-study threshold 1e-8, in the harness configuration format
// (Listing 4). A non-empty ladder sets each entry's precisions.
func studyCampaign(bs []bench.Benchmark, algorithms []string, ladder string) string {
	var b strings.Builder
	for _, bm := range bs {
		bin := safeName(bm.Name())
		for _, algo := range algorithms {
			fmt.Fprintf(&b, "%s-%s:\n", bin, strings.ToLower(algo))
			fmt.Fprintf(&b, "  build_dir: '%s'\n  build: ['make']\n  clean: ['make clean']\n", bin)
			b.WriteString("  analysis:\n    floatsmith:\n      name: 'floatSmith'\n      extra_args:\n")
			fmt.Fprintf(&b, "        algorithm: '%s'\n        threshold: 1e-8\n", algo)
			if ladder != "" {
				fmt.Fprintf(&b, "        precisions: '%s'\n", ladder)
			}
			fmt.Fprintf(&b, "  metric: '%s'\n  bin: '%s'\n  copy: ['%s']\n  args: ''\n\n", bm.Metric(), bin, bin)
		}
	}
	return b.String()
}

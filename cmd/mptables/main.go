// Command mptables regenerates every table and figure of the paper's
// evaluation section: Table I (kernel inventory), Table II (Typeforge
// complexity), Table III (kernel study), Table IV (manual single
// conversion), Table V (application study at three thresholds), and
// Figures 2a, 2b, and 3 (as CSV plus ASCII scatter plots). Tables III and
// V are one campaign; stderr gets a line per finished job.
//
// Usage:
//
//	mptables [-workers N] [-kernels-only] [-out DIR]
//
// With -out, each artifact is also written to DIR as a separate file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/report"
)

// artifact is one named regeneration output.
type artifact struct {
	name    string
	content string
}

// buildArtifacts assembles every artifact the study supports: the static
// tables always, the application tables, figures, and comparison only for
// a full campaign.
func buildArtifacts(study *report.Study, kernelsOnly bool) []artifact {
	out := []artifact{
		{"table1.txt", report.TableI()},
		{"table2.txt", report.TableII()},
		{"table3.txt", study.TableIII()},
	}
	if !kernelsOnly {
		out = append(out,
			artifact{"table4.txt", study.TableIV()},
			artifact{"table5.txt", study.TableV()},
			artifact{"figure2a.csv", study.Figure2a()},
			artifact{"figure2b.csv", study.Figure2b()},
			artifact{"figure3.csv", study.Figure3()},
			artifact{"comparison.md", study.Compare()},
		)
	}
	return out
}

func main() {
	var (
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		kernelsOnly = flag.Bool("kernels-only", false, "regenerate only Tables I-III (fast)")
		outDir      = flag.String("out", "", "also write each artifact to this directory")
	)
	flag.Parse()

	progress := func(msg string) { fmt.Fprintln(os.Stderr, "mptables:", msg) }
	study := report.Run(report.Options{
		Workers:     *workers,
		KernelsOnly: *kernelsOnly,
		Progress:    progress,
	})

	for _, a := range buildArtifacts(study, *kernelsOnly) {
		fmt.Println(a.content)
		fmt.Println()
		if *outDir != "" {
			path := filepath.Join(*outDir, a.name)
			if err := os.WriteFile(path, []byte(a.content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "mptables:", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "mptables: wrote", path)
		}
	}
}

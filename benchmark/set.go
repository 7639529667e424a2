package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is one metric of one workload over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
}

func summarize(unit string, values []float64) *summary {
	s := &summary{Unit: unit, Values: values, N: len(values)}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		s.Min, s.Max = math.Min(s.Min, v), math.Max(s.Max, v)
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s *summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// workloadSet is one workload's runs in a set.
type workloadSet struct {
	// Correct holds when every run's outputs matched; Attempted and
	// Failed add up the runs' operations. Failed/Attempted is the failed
	// share, and the runs whose outputs did not match are the result
	// mismatches.
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Mismatched int                 `json:"mismatched_runs"`
	Metrics    map[string]*summary `json:"metrics"`
}

// setFile is what a full set writes to -out.
type setFile struct {
	Env       environment             `json:"env"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Runs      int                     `json:"runs"`
	Trace     bool                    `json:"trace"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

func newSet(env environment, runs int, o options) *setFile {
	return &setFile{Env: env, Seed: o.seed, Seconds: o.seconds, Runs: runs, Trace: o.trace,
		Workloads: map[string]*workloadSet{}}
}

// add appends one run's result to its workload, in run order.
func (s *setFile) add(name string, res result, specs []metricSpec) {
	ws := s.Workloads[name]
	if ws == nil {
		ws = &workloadSet{Correct: true, Metrics: map[string]*summary{}}
		s.Workloads[name] = ws
	}
	ws.Attempted += res.Attempted
	ws.Failed += res.Failed
	if !res.Correct {
		ws.Correct = false
		ws.Mismatched++
	}
	for _, ms := range specs {
		sum := ws.Metrics[ms.Name]
		if sum == nil {
			sum = &summary{Unit: ms.Unit}
			ws.Metrics[ms.Name] = sum
		}
		sum.Values = append(sum.Values, res.Metrics[ms.Name].Value)
	}
}

// finish computes every metric's order statistics from its values.
func (s *setFile) finish() {
	for _, ws := range s.Workloads {
		for name, sum := range ws.Metrics {
			ws.Metrics[name] = summarize(sum.Unit, sum.Values)
		}
	}
}

// runOrder is the order of the workloads in run r: reversed on odd runs,
// so slow drift of the machine spreads over all of them.
func runOrder(r int) []workload {
	order := append([]workload(nil), workloads...)
	if r%2 == 1 {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}

// runSet runs every workload runs times, run r with seed+r.
func runSet(ctx context.Context, out string, runs int, o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	set := newSet(readEnvironment(), runs, o)
	for r := 0; r < runs; r++ {
		ro := o
		ro.seed = o.seed + int64(r)
		for _, w := range runOrder(r) {
			res, err := runWorkload(ctx, spec, w, ro)
			if err != nil {
				return fmt.Errorf("workload %s seed %d: %w", w.name, ro.seed, err)
			}
			set.add(w.name, res, spec.metrics(o.trace))
		}
	}
	set.finish()
	printSet(os.Stdout, spec, set)
	return writeJSON(out, set)
}

// pairFile is what a paired set writes to -out: the runs of two
// checkouts, interleaved, so run i of A and run i of B ran back to back
// on the same seed.
type pairFile struct {
	Roots [2]string `json:"roots"`
	A     *setFile  `json:"a"`
	B     *setFile  `json:"b"`
}

// runPair runs every workload runs times on each of two checkouts,
// alternating the two run by run - A and B back to back on the same
// seed, the side that goes first alternating - so a drift of the
// machine over minutes falls on both sides alike. It prints the paired
// comparison and reports false on a regression.
func runPair(ctx context.Context, out string, runs int, roots [2]string, o options) (bool, error) {
	if o.trace {
		return false, fmt.Errorf("-pair compares end-to-end metrics; run it without -trace")
	}
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	var sides [2]*setFile
	for k, root := range roots {
		abs, err := filepath.Abs(root)
		if err != nil {
			return false, err
		}
		roots[k] = abs
	}
	for r := 0; r < runs; r++ {
		seed := o.seed + int64(r)
		for i, w := range runOrder(r) {
			first := (r + i) % 2
			for k := 0; k < 2; k++ {
				side := (first + k) % 2
				res, env, err := runSide(ctx, roots[side], w.name, seed, o.seconds)
				if err != nil {
					return false, err
				}
				if sides[side] == nil {
					sides[side] = newSet(env, runs, o)
				}
				sides[side].add(w.name, res, spec.EndToEnd)
			}
		}
	}
	for _, s := range sides {
		s.finish()
	}
	pf := &pairFile{Roots: roots, A: sides[0], B: sides[1]}
	if err := writeJSON(out, pf); err != nil {
		return false, err
	}
	for k, s := range []*setFile{pf.A, pf.B} {
		fmt.Printf("%c %s, commit %q\n", "AB"[k], roots[k], s.Env.Commit)
	}
	return compareSets(os.Stdout, spec, pf.A, pf.B, true), nil
}

// runSide runs one workload through the run.sh of the checkout at root,
// which builds that checkout's mixpd and benchmark into its own build
// directory, and returns the result line and the environment record it
// prints.
func runSide(ctx context.Context, root, name string, seed int64, seconds float64) (result, environment, error) {
	var res result
	var env environment
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR=") // each side builds under its own checkout
	cmd.Stderr = os.Stderr
	// run.sh execs the benchmark, whose SIGTERM handler stops the processes
	// it started before it exits.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	stdout, err := cmd.Output()
	if err != nil {
		return res, env, fmt.Errorf("%s: workload %s seed %d: %w", root, name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, line := range lines {
		if rec, ok := strings.CutPrefix(line, "env "); ok {
			err = json.Unmarshal([]byte(rec), &env)
		}
	}
	if err == nil {
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	}
	if err != nil {
		return res, env, fmt.Errorf("%s: workload %s seed %d: bad output: %w", root, name, seed, err)
	}
	return res, env, nil
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSet prints every metric of every workload by name with its unit,
// median, quartiles and sample count.
func printSet(w io.Writer, spec *benchSpec, set *setFile) {
	fmt.Fprintf(w, "go %s, GOMAXPROCS %d, nproc %d, %s, commit %s\n",
		set.Env.GoVersion, set.Env.GOMAXPROCS, set.Env.NumCPU, set.Env.CPU, set.Env.Commit)
	for _, wl := range workloads {
		ws := set.Workloads[wl.name]
		share := 0.0
		if ws.Attempted > 0 {
			share = float64(ws.Failed) / float64(ws.Attempted)
		}
		fmt.Fprintf(w, "\n%s: correct %t, failed_share %g (%d of %d), result_mismatch %d runs\n",
			wl.name, ws.Correct, share, ws.Failed, ws.Attempted, ws.Mismatched)
		for _, ms := range spec.metrics(set.Trace) {
			s := ws.Metrics[ms.Name]
			fmt.Fprintf(w, "  %-32s %12.5g %-6s [q1 %.5g, q3 %.5g, min %.5g, n %d]\n",
				ms.Name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.N)
		}
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles compares the file -pair wrote (one path) or two files of
// separate sets (two paths). It reports false when a metric got worse by
// more than its bound or the second set failed its checks.
func compareFiles(w io.Writer, paths []string) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	var a, b *setFile
	paired := len(paths) == 1
	if paired {
		var pf pairFile
		if err := readJSON(paths[0], &pf); err != nil {
			return false, err
		}
		a, b = pf.A, pf.B
	} else {
		a, b = &setFile{}, &setFile{}
		if err := readJSON(paths[0], a); err != nil {
			return false, err
		}
		if err := readJSON(paths[1], b); err != nil {
			return false, err
		}
	}
	if a == nil || b == nil || a.Trace || b.Trace {
		return false, fmt.Errorf("compare takes untraced sets: the per-layer metrics have no bounds")
	}
	if !paired {
		fmt.Fprintln(w, "unpaired sets: a drift of the machine between them reads as a change; -pair runs the two interleaved")
	}
	return compareSets(w, spec, a, b, paired), nil
}

// compareSets prints, for every workload and end-to-end metric, the change
// of B against A and the metric's bound.
//
// Paired (run i of A and B ran back to back on one seed): the change is
// the median of the per-run ratios B/A and the spread is the quartile
// spread of those ratios, so a drift of the machine common to both sides
// cancels. Unpaired: the change is the ratio of the medians and the
// spread the wider of the two sets' quartile spreads.
//
// A metric whose spread is wider than its bound is unresolved, unless B
// reads better on every pair (paired) or every run of B reads better than
// every run of A (unpaired).
func compareSets(w io.Writer, spec *benchSpec, a, b *setFile, paired bool) bool {
	ok := true
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		if !wb.Correct || wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%s: FAILED CHECKS (correct %t, failed %d vs %d)\n", wl.name, wb.Correct, wb.Failed, wa.Failed)
			ok = false
		}
		for _, ms := range spec.EndToEnd {
			sa, sb := wa.Metrics[ms.Name], wb.Metrics[ms.Name]
			if sa == nil || sb == nil || sa.Median == 0 {
				continue
			}
			var change, spread float64
			var allBetter bool
			wins := ""
			if paired {
				rs, won := pairRatios(ms.Better, sa.Values, sb.Values)
				change, spread = rs.Median-1, rs.spread()
				allBetter = won == rs.N && rs.N > 0
				wins = fmt.Sprintf("  B better %d/%d", won, rs.N)
			} else {
				change = (sb.Median - sa.Median) / sa.Median
				spread = math.Max(sa.spread(), sb.spread())
				allBetter = everyRunBetter(ms.Better, sa, sb)
			}
			worse := change
			if ms.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case spread > ms.Bound && allBetter:
				verdict = "better"
			case spread > ms.Bound:
				verdict = "unresolved"
			case worse > ms.Bound:
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-22s %11.5g -> %11.5g %-5s %+7.1f%%  bound %3.0f%%  spread %5.1f%%%s  %s\n",
				wl.name, ms.Name, sa.Median, sb.Median, ms.Unit, 100*change, 100*ms.Bound, 100*spread, wins, verdict)
		}
	}
	return ok
}

// pairRatios returns the order statistics of the per-run ratios b/a and
// the number of pairs on which b reads better.
func pairRatios(better string, a, b []float64) (*summary, int) {
	var ratios []float64
	won := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == 0 {
			continue
		}
		ratios = append(ratios, b[i]/a[i])
		if (better == "higher" && b[i] > a[i]) || (better == "lower" && b[i] < a[i]) {
			won++
		}
	}
	return summarize("", ratios), won
}

// everyRunBetter reports whether every run of b reads better than every
// run of a.
func everyRunBetter(better string, a, b *summary) bool {
	if a.N == 0 || b.N == 0 {
		return false
	}
	if better == "higher" {
		return b.Min > a.Max
	}
	return b.Max < a.Min
}

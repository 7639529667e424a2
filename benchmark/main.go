// Command benchmark measures the mixed-precision campaign tool end to end
// and layer by layer. It drives the system only through public entry
// points: harness.ParseCampaign followed by harness.RunCampaign (the path
// `mixpbench -config` takes) and the mixpd binary over loopback HTTP.
//
// Run it through run.sh, which builds mixpd and this program first:
//
//	bash benchmark/run.sh --workload kernel-study --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 42 -out a.json        # every workload, -runs times
//	bash benchmark/run.sh -seed 42 -trace 1 -out t.json
//	bash benchmark/run.sh -pair -runs 10 -out p.json BASE_CHECKOUT .
//	bash benchmark/run.sh -compare p.json
//
// With -workload it runs one workload and prints, as the last line of its
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics: every end-to-end metric of BENCHMARK.json with
// -trace 0, every per-layer metric with -trace 1. Without it, it runs
// every workload -runs times, alternating their order, prints each metric
// with its unit, median and quartiles, and writes them to -out. -pair
// does the same for two checkouts of the repository, A and B run back to
// back on each seed, and checks B against A within the bounds of
// BENCHMARK.json. -compare does that check on the file -pair wrote, or on
// two files of separate sets; both exit 1 on a regression.
//
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// pinsJSON holds the seed-42 result digests every workload must
// reproduce.
//
//go:embed testdata/pins.json
var pinsJSON []byte

// pins are the seed-42 result digests.
type pins struct {
	Seed int64 `json:"seed"`
	// Campaigns are each in-process workload's digests, one per rotation
	// seed.
	Campaigns map[string][]string `json:"campaigns"`
	// ServiceReads are the service workload's generation-1 /results
	// digests, one per read seed in draw order.
	ServiceReads []string `json:"service_reads"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run one workload and print its result as the last line")
		seed     = fs.Int64("seed", 42, "workload seed: drives every campaign's Seed and the service's seed sequence")
		seconds  = fs.Float64("seconds", 20, "length of a run's timed phase")
		traceArg = fs.Int("trace", 0, "1 runs the traced variant and emits the per-layer metrics")
		mixpd    = fs.String("mixpd", "", "mixpd binary (run.sh builds it)")
		out      = fs.String("out", "", "full or paired set: write the aggregated results to this file")
		runs     = fs.Int("runs", 3, "full or paired set: runs per workload, with seeds seed, seed+1, ...")
		pair     = fs.Bool("pair", false, "run the two checkouts given as arguments, A and B, in interleaved pairs and check B against A")
		compare  = fs.Bool("compare", false, "check the paired-set file, or the second of two set files against the first, given as arguments")
		child    = fs.String("child", "", "internal: run as a setup, run or trace child of an in-process workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceArg != 0 && *traceArg != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	o := options{
		seed:           *seed,
		seconds:        *seconds,
		trace:          *traceArg == 1,
		mixpd:          *mixpd,
		setups:         5,
		benchtime:      "100ms",
		readSeeds:      40,
		minSubmissions: 1,
	}
	// SIGINT and SIGTERM cancel the run, which kills the processes it
	// started and waits for them before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	ok := true
	switch {
	case *compare:
		if fs.NArg() != 1 && fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes a paired-set file or two set files")
			return 2
		}
		ok, err = compareFiles(os.Stdout, fs.Args())
	case *pair:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -pair takes two checkout directories")
			return 2
		}
		ok, err = runPair(ctx, *out, *runs, [2]string{fs.Arg(0), fs.Arg(1)}, o)
	case *child != "":
		var w workload
		if w, err = lookupWorkload(*name); err == nil {
			err = childMain(*child, w, o)
		}
	case *name != "":
		err = runOne(ctx, *name, o)
	default:
		err = runSet(ctx, *out, *runs, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs a single workload and prints the environment record and
// then the result line.
func runOne(ctx context.Context, name string, o options) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	res, err := runWorkload(ctx, spec, w, o)
	if err != nil {
		return err
	}
	envLine, err := json.Marshal(readEnvironment())
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n%s\n", envLine, line)
	return nil
}

// runWorkload measures one workload and checks its outputs.
func runWorkload(ctx context.Context, spec *benchSpec, w workload, o options) (result, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return result{}, fmt.Errorf("pins: %w", err)
	}
	pinned := o.seed == p.Seed
	if !pinned {
		p = pins{} // other seeds check self-consistency only
	}
	if !w.inProcess() && o.mixpd == "" {
		return result{}, errors.New("the service workload needs -mixpd")
	}
	// Every run ends well inside the 180 s a run may take; a hang becomes
	// an error instead.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds+150)*time.Second)
	defer cancel()
	m := newMetricSet(spec.metrics(o.trace))
	var env envProbe
	if o.trace {
		o.setups = 1 // set-up time is an end-to-end metric
		start := now()
		env.measure()
		lad, err := ladder(o.seed, o.benchtime)
		if err != nil {
			return result{}, err
		}
		m.setAll(lad)
		o.seconds = max(1, o.seconds-since(start))
	}
	if pinned && w.inProcess() && len(p.Campaigns[w.name]) != campaignSeeds {
		return result{}, fmt.Errorf("no pinned digests for %s", w.name)
	}
	var res result
	var err error
	if w.inProcess() {
		var rep childReport
		res, rep, err = runInProcess(ctx, w, o, p.Campaigns[w.name], m)
		if err == nil && o.trace {
			m.set("ladder.exec_predicted_ratio", predictedRatio(rep, m))
		}
	} else {
		res, err = runService(ctx, o, p.ServiceReads, m)
	}
	if err != nil {
		return result{}, err
	}
	if o.trace {
		env.measure()
		m.set("env.calib_ms", median(env.calibMs))
		m.set("env.copy_gbs", median(env.copyGBs))
		fmt.Fprintf(os.Stderr, "benchmark: env calib_ms %.1f -> %.1f, copy_gbs %.2f -> %.2f\n",
			env.calibMs[0], env.calibMs[1], env.copyGBs[0], env.copyGBs[1])
	}
	res.Metrics = m.result()
	return res, nil
}

// predictedRatio checks that the layers add up: the traced campaign's
// per-port execution counts times the ladder's per-port Run time, over
// the measured exec busy time.
func predictedRatio(rep childReport, m *metricSet) float64 {
	predicted := 0.0
	for port, calls := range rep.ExecCalls {
		predicted += calls * m.values["bench.run_ms."+safeName(port)] / 1e3
	}
	return predicted / m.values["bench.exec_busy_s"]
}

// now reads the wall clock, which is what the benchmark measures.
func now() time.Time {
	return time.Now() //mixplint:ignore simclock -- the benchmark measures real elapsed time by design; nothing it reads feeds a simulated campaign clock
}

// sleep waits between health polls.
func sleep(d time.Duration) {
	time.Sleep(d) //mixplint:ignore simclock -- polling a starting mixpd for health; no campaign result depends on it
}

// Package perfmodel reconstructs execution time for benchmark runs.
//
// The paper measures wall-clock time of recompiled binaries on cluster
// nodes with Intel 8-core Xeon E5-2670 processors and 256 GB of DRAM. That
// testbed is not available here, so the reproduction substitutes an
// analytic machine model driven by the exact work counters the mp runtime
// collects. The model is a roofline with a cache-capacity step:
//
//	compute = flops64/rate64 + flops32/rate32
//	memory  = traffic / bandwidth(workingSet)
//	time    = overhead + max(compute, memory) + casts/castRate
//
// This deliberately simple form captures every mechanism the paper's
// conclusions rely on:
//
//   - single-precision arithmetic runs at twice the double-precision rate
//     (wider SIMD lanes), bounding compute-bound speedup at 2x;
//   - demoting an array halves its traffic, bounding bandwidth-bound
//     speedup at 2x at constant bandwidth;
//   - when demotion shrinks the working set below a cache-capacity
//     boundary, bandwidth itself jumps, which is how LavaMD-style programs
//     exceed 2x (the paper's cache-miss-rate observation);
//   - precision-boundary casts are charged outside the roofline max, so a
//     configuration that demotes half of a dependence chain can be slower
//     than the original program - the paper's warning that fewer double
//     variables does not imply more speed.
//
// The model also reproduces the paper's measurement protocol: each
// configuration is "executed" ten times with small multiplicative jitter,
// the best and worst are discarded, and the rest are averaged.
package perfmodel

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mp"
)

// CacheLevel describes one level of the memory hierarchy: traffic whose
// working set fits within Size bytes is served at Bandwidth bytes/second.
type CacheLevel struct {
	Name      string
	Size      uint64  // capacity in bytes
	Bandwidth float64 // bytes per second
}

// Machine is the analytic model of one execution node.
type Machine struct {
	// Name identifies the modelled processor.
	Name string
	// Rate64, Rate32, and Rate16 are sustained floating-point operation
	// rates in flops/second for each precision. Rate16 only matters for
	// extension studies: the paper's configurations never retire
	// half-precision operations.
	Rate64 float64
	Rate32 float64
	Rate16 float64
	// CastRate is the rate of precision-conversion instructions in
	// casts/second. Every conversion prices at this one rate, whatever
	// formats it moves between.
	CastRate float64
	// EnergyModel prices the same work counters in joules; see Energy.
	EnergyModel EnergyModel
	// Caches lists the hierarchy from smallest to largest; a working set
	// larger than every level is served from DRAM.
	Caches []CacheLevel
	// DRAMBandwidth is the main-memory bandwidth in bytes/second.
	DRAMBandwidth float64
	// RunOverhead is the fixed per-execution cost in seconds (process
	// start, input loading).
	RunOverhead float64
}

// Default returns the model calibrated to the paper's testbed class (one
// core of a Xeon E5-2670 with AVX: 8 double or 16 single flops/cycle at
// 2.6 GHz gives the 2x precision ratio; cache capacities are the part's
// 32 KiB L1D, 256 KiB L2, 20 MiB shared L3).
func Default() Machine {
	return Machine{
		Name:     "xeon-e5-2670",
		Rate64:   16e9,
		Rate32:   32e9,
		Rate16:   64e9,
		CastRate: 10e9,
		Caches: []CacheLevel{
			{Name: "L1", Size: 32 << 10, Bandwidth: 150e9},
			{Name: "L2", Size: 256 << 10, Bandwidth: 80e9},
			{Name: "L3", Size: 20 << 20, Bandwidth: 30e9},
		},
		DRAMBandwidth: 13e9,
		RunOverhead:   1e-4,
		// Energy coefficients follow the usual CPU scaling: a narrower
		// flop costs proportionally less dynamic energy, data movement
		// costs more per byte than arithmetic per flop, and the idle/static
		// draw of a server-class socket dominates short runs.
		EnergyModel: EnergyModel{
			FlopJoules: [3]float64{20e-12, 10e-12, 5e-12},
			ByteJoules: 30e-12,
			CastJoules: 15e-12,
			IdleWatts:  50,
		},
	}
}

// Bandwidth returns the bytes/second the hierarchy sustains for a resident
// working set of the given size.
func (m Machine) Bandwidth(workingSet uint64) float64 {
	for _, c := range m.Caches {
		if workingSet <= c.Size {
			return c.Bandwidth
		}
	}
	return m.DRAMBandwidth
}

// Time converts one execution's cost into modelled seconds.
func (m Machine) Time(c mp.Cost) float64 {
	compute := float64(c.Flops64)/m.Rate64 + float64(c.Flops32)/m.Rate32
	if c.Flops16 > 0 {
		compute += float64(c.Flops16) / m.Rate16
	}
	mem := float64(c.Bytes()) / m.Bandwidth(c.Footprint())
	t := compute
	if mem > t {
		t = mem
	}
	return m.RunOverhead + t + float64(c.Casts)/m.CastRate
}

// EnergyModel prices the work counters of one execution in joules: a
// dynamic cost per retired flop by width class, per byte of array traffic,
// and per precision conversion, plus the node's idle (static) power drawn
// for the modelled duration. The idle term is what makes energy a genuine
// second objective rather than a rescaled copy of time: a configuration
// that shortens the run saves static energy even when its dynamic work is
// unchanged, and one that adds casts can win time yet lose energy.
type EnergyModel struct {
	// FlopJoules is the dynamic energy per floating-point operation by
	// width class (0, 1, 2 for 8-, 4-, 2-byte containers).
	FlopJoules [3]float64
	// ByteJoules is the dynamic energy per byte of array traffic.
	ByteJoules float64
	// CastJoules is the dynamic energy per precision conversion.
	CastJoules float64
	// IdleWatts is the static power drawn for the run's modelled duration.
	IdleWatts float64
}

// Energy converts one execution's cost into modelled joules:
// dynamic work priced by the EnergyModel plus idle power times Time.
func (m Machine) Energy(c mp.Cost) float64 {
	e := m.EnergyModel
	dyn := float64(c.Flops64)*e.FlopJoules[0] +
		float64(c.Flops32)*e.FlopJoules[1] +
		float64(c.Flops16)*e.FlopJoules[2] +
		float64(c.Bytes())*e.ByteJoules +
		float64(c.Casts)*e.CastJoules
	return dyn + e.IdleWatts*m.Time(c)
}

// Measurement is the result of the paper's timing protocol applied to one
// configuration.
type Measurement struct {
	// Mean is the trimmed mean over the repetitions in seconds.
	Mean float64
	// Runs is the number of repetitions performed.
	Runs int
	// Total is the untrimmed sum of all repetitions in seconds; the search
	// harness charges it (plus rebuild overhead) against the analysis time
	// budget.
	Total float64
}

// DefaultRuns is the paper's repetition count: ten executions per
// configuration, best and worst discarded.
const DefaultRuns = 10

// jitterAmplitude bounds the multiplicative run-to-run noise. Real repeated
// runs vary by a fraction of a percent on a quiet node; the trimmed mean
// exists to suppress exactly this.
const jitterAmplitude = 0.005

// Measure applies the measurement protocol to a modelled time: runs
// repetitions with seeded multiplicative jitter, discard the single best
// and single worst, and average the rest. runs must be at least 3 so the
// trim leaves at least one sample.
func Measure(modelTime float64, runs int, rng *rand.Rand) Measurement {
	if runs < 3 {
		panic(fmt.Sprintf("perfmodel: Measure needs at least 3 runs, got %d", runs))
	}
	samples := make([]float64, runs)
	total := 0.0
	for i := range samples {
		jitter := 1 + jitterAmplitude*(2*rng.Float64()-1)
		samples[i] = modelTime * jitter
		total += samples[i]
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, s := range samples[1 : runs-1] {
		sum += s
	}
	return Measurement{
		Mean:  sum / float64(runs-2),
		Runs:  runs,
		Total: total,
	}
}

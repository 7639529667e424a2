// Package apps implements the seven proxy/mini applications of
// HPC-MixPBench (Section III-B): Blackscholes and CFD from PARSEC/Rodinia
// lineage, Hotspot, K-means, LavaMD, and SRAD from Rodinia, and HPCCG from
// the Mantevo suite. The paper merged each application's sources into one
// file for analysis; these ports preserve the merged programs' computation
// and, exactly, their Typeforge variable inventories (Table II, locked by
// tests).
//
// Where an application's behaviour under demotion carries one of the
// paper's findings, the port preserves the mechanism rather than the
// incidental constants:
//
//   - LavaMD's working set straddles the L3 boundary, so full demotion
//     wins from the cache-capacity step (the paper's largest speedup);
//   - SRAD's diffusion exponentials overflow float32, so full demotion
//     destroys the output (NaN) at any threshold;
//   - HPCCG's conjugate gradient needs roughly twice the iterations at
//     single precision, cancelling the per-iteration gain;
//   - K-means assignment is branch-dominated and converges one iteration
//     later at single precision: a small net slowdown;
//   - Hotspot and CFD contain double literals a source-level tool cannot
//     retype, charged as per-element casts in searched configurations.
package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// app carries the metadata shared by every application implementation.
type app struct {
	name   string
	desc   string
	metric verify.Metric
	graph  *typedep.Graph
}

func (a *app) Name() string          { return a.name }
func (a *app) Kind() bench.Kind      { return bench.App }
func (a *app) Description() string   { return a.desc }
func (a *app) Metric() verify.Metric { return a.metric }
func (a *app) Graph() *typedep.Graph { return a.graph }

// PureInit declares that every application draws its random inputs in a
// configuration-independent prefix of Run (all generators come from
// t.Rand seeded by the workload seed alone), so the compiler may record
// one input stream per seed and replay it across configurations
// (see bench.PureIniter). The cross-configuration equivalence tests lock
// the claim for every port.
func (a *app) PureInit() bool { return true }

// fillRand initialises an array with uniform values in [lo, hi). SetEach
// draws in index order, so the value stream is identical to an
// element-wise Set loop.
func fillRand(a *mp.Array, rng *rand.Rand, lo, hi float64) {
	a.SetEach(func(int) float64 { return lo + (hi-lo)*rng.Float64() })
}

// fillRandExact initialises an array with float32-exact values in
// [0, scale), where scale must be a power of two: demoting such an array is
// numerically lossless.
func fillRandExact(a *mp.Array, rng *rand.Rand, scale float64) {
	a.SetEach(func(int) float64 { return float64(rng.Float32()) * scale })
}

// addAliases declares n pointer-parameter aliases of the variable owner in
// unit, connecting each to owner. This is how the merged applications'
// parameter webs enter the dependence graph: every function that receives
// the buffer contributes one alias to the cluster.
func addAliases(g *typedep.Graph, owner mp.VarID, unit, stem string, n int) {
	for i := 0; i < n; i++ {
		id := g.Add(fmt.Sprintf("%s_p%d", stem, i), unit, typedep.Param)
		g.Connect(owner, id)
	}
}

// All returns one instance of every application, in Table II order.
func All() []bench.Benchmark {
	return []bench.Benchmark{
		NewBlackscholes(),
		NewCFD(),
		NewHotspot(),
		NewHPCCG(),
		NewLavaMD(),
		NewKMeans(),
		NewSRAD(),
	}
}

// newSeedRand returns the deterministic stream benchmarks draw their
// workloads from; correctness tests use it to reconstruct inputs.
func newSeedRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

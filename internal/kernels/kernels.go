// Package kernels implements the ten kernel benchmarks of HPC-MixPBench
// (Table I). The kernels descend from the Livermore loops: short fragments
// that are typical building blocks of HPC codes, easy to understand, free
// of file IO, and randomly initialised, which makes them the suite's
// recommended starting point for debugging a mixed-precision tool and the
// only programs small enough for the combinational (exhaustive) search.
//
// Each kernel declares its tunable variables and the type-dependence edges
// Typeforge extracts from the original C source; the Total Variables and
// Total Clusters counts of the paper's Table II are reproduced exactly and
// locked by tests. Problem sizes model the paper's runs via the tape's
// cost scale (see mp.Tape.SetScale); the arithmetic itself runs at a
// proportionally smaller size with identical loop structure.
package kernels

import (
	"math/rand"

	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// kernel carries the metadata shared by every kernel implementation.
type kernel struct {
	name  string
	desc  string
	graph *typedep.Graph
}

func (k *kernel) Name() string          { return k.name }
func (k *kernel) Kind() bench.Kind      { return bench.Kernel }
func (k *kernel) Description() string   { return k.desc }
func (k *kernel) Metric() verify.Metric { return verify.MAE }
func (k *kernel) Graph() *typedep.Graph { return k.graph }

// PureInit declares that every kernel draws its random inputs in a
// configuration-independent prefix of Run (all generators come from
// t.Rand seeded by the workload seed alone), so the compiler may record
// one input stream per seed and replay it across configurations
// (see bench.PureIniter). The cross-configuration equivalence tests lock
// the claim for every port.
func (k *kernel) PureInit() bool { return true }

// fillRand initialises an array with uniform values in [lo, hi) drawn from
// rng. Initialisation stores through the array, so the values are narrowed
// to the array's configured precision exactly as data held in a real float
// buffer would be. SetEach draws in index order, so the value stream is
// identical to an element-wise Set loop.
func fillRand(a *mp.Array, rng *rand.Rand, lo, hi float64) {
	a.SetEach(func(int) float64 { return lo + (hi-lo)*rng.Float64() })
}

// All returns one instance of every kernel, in Table I order.
func All() []bench.Benchmark {
	return []bench.Benchmark{
		NewBandedLinEq(),
		NewDiffPredictor(),
		NewEOS(),
		NewGenLinRecur(),
		NewHydro1D(),
		NewICCG(),
		NewInnerProd(),
		NewIntPredict(),
		NewPlanckian(),
		NewTridiag(),
	}
}

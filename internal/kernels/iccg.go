package kernels

import (
	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
)

// iccg is the incomplete Cholesky conjugate gradient excerpt (Livermore
// loop 2 lineage): a tree reduction in which each level halves the active
// range,
//
//	x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1]
//
// Inventory (Table II: TV=2, TC=1): the solution vector x and the
// coefficient vector v are both passed by pointer into the sweep and share
// one cluster.
//
// Rounding compounds across the log-depth levels, which puts the demoted
// version's error just below the kernel quality threshold - the paper's
// borderline 9.94e-9 cell.
type iccg struct {
	kernel
	vX, vV mp.VarID
}

const (
	iccgN     = 1 << 15
	iccgReps  = 7
	iccgScale = 6
)

// NewICCG constructs the kernel.
func NewICCG() bench.Benchmark {
	g := typedep.NewGraph()
	k := &iccg{kernel: kernel{
		name:  "iccg",
		desc:  "Incomplete Cholesky conjugate gradient",
		graph: g,
	}}
	k.vX = g.Add("x", "iccg_sweep", typedep.ArrayVar)
	k.vV = g.Add("v", "iccg_sweep", typedep.ArrayVar)
	g.Connect(k.vX, k.vV)
	return k
}

func (k *iccg) Run(t *mp.Tape, seed int64) bench.Output {
	t.SetScale(iccgScale)
	rng := t.Rand(seed)
	x := t.NewArray(k.vX, 2*iccgN)
	v := t.NewArray(k.vV, 2*iccgN)
	fillRand(v, rng, 0.02, 0.12)

	elems := uint64(0)
	for rep := 0; rep < iccgReps; rep++ {
		// Re-seed the solution so every repetition performs identical
		// work on identical data.
		repRng := t.Rand(seed + 1)
		fillRand(x, repRng, 0.05, 0.15)
		ii := iccgN
		ipntp := 0
		for ii > 1 {
			ipnt := ipntp
			ipntp += ii
			ii /= 2
			i := ipntp - 1
			for kk := ipnt + 1; kk < ipntp; kk += 2 {
				i++
				x.Set(i, x.Get(kk)-v.Get(kk)*x.Get(kk-1)-v.Get(kk+1)*x.Get(kk+1))
				elems++
			}
		}
	}
	// 4 flops per reduced element at the cluster's precision.
	t.AddFlops(t.Prec(k.vX), 4*elems)
	out := make([]float64, 1024)
	x.SnapshotInto(out, x.Len()-len(out))
	return bench.Output{Values: out}
}

package kernels

import (
	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
)

// hydro1d is the hydrodynamics fragment (Livermore loop 1 lineage):
//
//	x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
//
// Inventory (Table II: TV=6, TC=2): the arrays x, y, z are threaded by
// pointer through the fragment and form one cluster; the scalars q, r, t
// are initialised through a shared pointer-based setup routine and form the
// second. Demoting only one of the clusters leaves a precision boundary in
// the update expression, paid as one conversion per element - which is why
// the search settles on the uniform configuration.
type hydro1d struct {
	kernel
	vX, vY, vZ, vQ, vR, vT mp.VarID
}

const (
	hydroN     = 8192
	hydroReps  = 12
	hydroScale = 4
)

// NewHydro1D constructs the kernel.
func NewHydro1D() bench.Benchmark {
	g := typedep.NewGraph()
	k := &hydro1d{kernel: kernel{
		name:  "hydro-1d",
		desc:  "Hydrodynamics fragment",
		graph: g,
	}}
	k.vX = g.Add("x", "hydro", typedep.ArrayVar)
	k.vY = g.Add("y", "hydro", typedep.ArrayVar)
	k.vZ = g.Add("z", "hydro", typedep.ArrayVar)
	k.vQ = g.Add("q", "setup", typedep.Scalar)
	k.vR = g.Add("r", "setup", typedep.Scalar)
	k.vT = g.Add("t", "setup", typedep.Scalar)
	g.ConnectAll(k.vX, k.vY, k.vZ)
	//mixplint:alias -- q, r and t are initialised together by the C driver's setup routine; the port samples them directly, so the coupling is visible only in the original source
	g.ConnectAll(k.vQ, k.vR, k.vT)
	return k
}

func (k *hydro1d) Run(t *mp.Tape, seed int64) bench.Output {
	t.SetScale(hydroScale)
	rng := t.Rand(seed)
	x := t.NewArray(k.vX, hydroN+11)
	y := t.NewArray(k.vY, hydroN+11)
	z := t.NewArray(k.vZ, hydroN+11)
	fillRand(y, rng, 0.01, 0.10)
	fillRand(z, rng, 0.01, 0.10)
	// Scalars drawn float32-exact, so demoting their cluster is lossless.
	q := t.Value(k.vQ, float64(rng.Float32())*0.0625)
	r := t.Value(k.vR, float64(rng.Float32())*0.5)
	tt := t.Value(k.vT, float64(rng.Float32())*0.5)

	arrP, sclP := t.Prec(k.vX), t.Prec(k.vQ)
	for rep := 0; rep < hydroReps; rep++ {
		for i := 0; i < hydroN; i++ {
			x.Set(i, q+y.Get(i)*(r*z.Get(i+10)+tt*z.Get(i+11)))
		}
	}
	// 5 flops per element at the expression precision (double unless every
	// operand cluster is single).
	exprP := mp.F64
	if arrP == mp.F32 && sclP == mp.F32 {
		exprP = mp.F32
	}
	t.AddFlops(exprP, 5*hydroN*hydroReps)
	if arrP != sclP {
		// One conversion per element store at the precision boundary.
		t.AddCasts(hydroN * hydroReps)
	}
	out := make([]float64, hydroN)
	x.SnapshotInto(out, 0)
	return bench.Output{Values: out}
}

package kernels

import (
	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
)

// eos is the equation-of-state fragment (Livermore loop 7 lineage):
//
//	x[k] = u[k] + r*(z[k] + r*y[k]) +
//	       t*(u[k+3] + r*(u[k+2] + r*u[k+1]) +
//	          t*(u[k+6] + q*(u[k+5] + q*u[k+4])))
//
// Inventory (Table II: TV=7, TC=2): the arrays x, y, z, u form one cluster
// (all passed by pointer through the fragment); the interpolation scalars
// r, t, q are initialised through one setup routine and form the second.
//
// The state values sit near 1.0, so demoting the array cluster costs a
// full float32 ulp (~6e-8) per element - above the kernel threshold - while
// the float32-exact scalars demote losslessly. The search therefore lands
// on the scalar-only configuration: zero error and no speedup, matching
// the paper's eos row.
type eos struct {
	kernel
	vX, vY, vZ, vU, vR, vT, vQ mp.VarID
}

const (
	eosN     = 8192
	eosReps  = 8
	eosScale = 4
)

// NewEOS constructs the kernel.
func NewEOS() bench.Benchmark {
	g := typedep.NewGraph()
	k := &eos{kernel: kernel{
		name:  "eos",
		desc:  "Equation of state fragment",
		graph: g,
	}}
	k.vX = g.Add("x", "eos", typedep.ArrayVar)
	k.vY = g.Add("y", "eos", typedep.ArrayVar)
	k.vZ = g.Add("z", "eos", typedep.ArrayVar)
	k.vU = g.Add("u", "eos", typedep.ArrayVar)
	k.vR = g.Add("r", "setup", typedep.Scalar)
	k.vT = g.Add("t", "setup", typedep.Scalar)
	k.vQ = g.Add("q", "setup", typedep.Scalar)
	g.ConnectAll(k.vX, k.vY, k.vZ, k.vU)
	//mixplint:alias -- r, t and q come out of one C setup expression chain; the port samples them directly, so the coupling is visible only in the original source
	g.ConnectAll(k.vR, k.vT, k.vQ)
	return k
}

func (k *eos) Run(t *mp.Tape, seed int64) bench.Output {
	t.SetScale(eosScale)
	rng := t.Rand(seed)
	x := t.NewArray(k.vX, eosN+7)
	y := t.NewArray(k.vY, eosN+7)
	z := t.NewArray(k.vZ, eosN+7)
	u := t.NewArray(k.vU, eosN+7)
	fillRand(y, rng, 0.5, 1.5)
	fillRand(z, rng, 0.5, 1.5)
	fillRand(u, rng, 0.5, 1.5)
	r := t.Value(k.vR, float64(rng.Float32())*0.25)
	tt := t.Value(k.vT, float64(rng.Float32())*0.25)
	q := t.Value(k.vQ, float64(rng.Float32())*0.25)

	arrP, sclP := t.Prec(k.vX), t.Prec(k.vR)
	for rep := 0; rep < eosReps; rep++ {
		for i := 0; i < eosN; i++ {
			x.Set(i, u.Get(i)+r*(z.Get(i)+r*y.Get(i))+
				tt*(u.Get(i+3)+r*(u.Get(i+2)+r*u.Get(i+1))+
					tt*(u.Get(i+6)+q*(u.Get(i+5)+q*u.Get(i+4)))))
		}
	}
	exprP := mp.F64
	if arrP == mp.F32 && sclP == mp.F32 {
		exprP = mp.F32
	}
	t.AddFlops(exprP, 15*eosN*eosReps)
	if arrP != sclP {
		t.AddCasts(eosN * eosReps)
	}
	out := make([]float64, eosN)
	x.SnapshotInto(out, 0)
	return bench.Output{Values: out}
}

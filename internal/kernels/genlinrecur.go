package kernels

import (
	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/typedep"
)

// genLinRecur is the general linear recurrence equations kernel (Livermore
// loop 6 lineage):
//
//	w[i] += b[k*n+i] * w[(i-k)-1]
//
// Inventory (Table II: TV=4, TC=1): the state vector w, the coefficient
// matrix b, the running sum s (accumulated through a pointer out-param),
// and the seed value w0 are all bound through the recurrence routine's
// pointer interface, forming a single cluster.
//
// Like tridiag, the recurrence compounds rounding error, so the demoted
// configuration fails the kernel threshold and the search returns the
// original program.
type genLinRecur struct {
	kernel
	vW, vB, vS, vW0 mp.VarID
}

const (
	glrN     = 1024
	glrBands = 6
	glrReps  = 4
	glrScale = 2
)

// NewGenLinRecur constructs the kernel.
func NewGenLinRecur() bench.Benchmark {
	g := typedep.NewGraph()
	k := &genLinRecur{kernel: kernel{
		name:  "gen-lin-recur",
		desc:  "General linear recurrence equation",
		graph: g,
	}}
	k.vW = g.Add("w", "recurrence", typedep.ArrayVar)
	k.vB = g.Add("b", "recurrence", typedep.ArrayVar)
	k.vS = g.Add("s", "recurrence", typedep.Scalar)
	k.vW0 = g.Add("w0", "recurrence", typedep.Scalar)
	//mixplint:alias -- the running sum s accumulates through the recurrence routine's pointer out-param in C; scalar-to-array flow leaves no element co-location for the analyzer to see
	g.ConnectAll(k.vW, k.vB, k.vS, k.vW0)
	return k
}

func (k *genLinRecur) Run(t *mp.Tape, seed int64) bench.Output {
	t.SetScale(glrScale)
	rng := t.Rand(seed)
	w := t.NewArray(k.vW, glrN)
	b := t.NewArray(k.vB, glrBands*glrN)
	fillRand(b, rng, -0.04, 0.05)
	w0 := t.Value(k.vW0, 0.75)

	s := 0.0
	elems := uint64(0)
	for rep := 0; rep < glrReps; rep++ {
		w.Fill(w0)
		for i := 1; i < glrN; i++ {
			acc := w.Get(i)
			for kk := 0; kk < glrBands && kk < i; kk++ {
				acc += b.Get(kk*glrN+i) * w.Get(i-kk-1)
				elems++
			}
			w.Set(i, acc)
			s = t.Assign(k.vS, s+w.Get(i), 1, k.vW)
		}
	}
	t.AddFlops(t.Prec(k.vW), 2*elems)
	out := make([]float64, glrN+1)
	w.SnapshotInto(out[:glrN], 0)
	out[glrN] = s
	return bench.Output{Values: out}
}

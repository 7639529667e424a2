package mp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// eagerMeter is the differential oracle for the tape's deferred
// metering: it charges every call on the spot, straight from the
// per-call rules the Tape documents, with no charge factors, pending
// counters, or flushes. It also mirrors every array's contents.
type eagerMeter struct {
	prec        []Prec
	scale       uint64
	computeOnly bool
	cost        Cost
	perVar      []VarProfile
	arrays      [][]float64
	owner       []VarID
}

func newEagerMeter(n int) *eagerMeter {
	return &eagerMeter{prec: make([]Prec, n), scale: 1, perVar: make([]VarProfile, n)}
}

// class is the width class a format's counters accumulate in: 0, 1, 2
// for 8-, 4-, and 2-byte containers.
func class(p Prec) int {
	switch p.Size() {
	case 4:
		return 1
	case 2:
		return 2
	}
	return 0
}

func flopsOf(c *Cost, p Prec) *uint64 {
	return [...]*uint64{&c.Flops64, &c.Flops32, &c.Flops16}[class(p)]
}

func bytesOf(c *Cost, p Prec) *uint64 {
	return [...]*uint64{&c.Bytes64, &c.Bytes32, &c.Bytes16}[class(p)]
}

func (m *eagerMeter) storage(v VarID) Prec {
	if m.computeOnly {
		return F64
	}
	return m.prec[v]
}

func (m *eagerMeter) newArray(v VarID, n int) {
	w := m.storage(v)
	*[...]*uint64{&m.cost.Footprint64, &m.cost.Footprint32, &m.cost.Footprint16}[class(w)] += uint64(n) * w.Size() * m.scale
	m.arrays = append(m.arrays, make([]float64, n))
	m.owner = append(m.owner, v)
}

// traffic charges n elements of array a's traffic at its variable's
// current storage width.
func (m *eagerMeter) traffic(a int, n int) {
	v := m.owner[a]
	w := m.storage(v)
	b := uint64(n) * w.Size() * m.scale
	*bytesOf(&m.cost, w) += b
	m.perVar[v].Bytes += b
}

// store narrows x through array a's variable's current precision.
func (m *eagerMeter) store(a, i int, x float64) {
	m.arrays[a][i] = m.prec[m.owner[a]].Round(x)
}

func (m *eagerMeter) assign(dst VarID, x float64, flops uint64, srcs []VarID) float64 {
	dp := m.prec[dst]
	ep := dp
	for _, s := range srcs {
		sp := m.prec[s]
		if sp != dp {
			m.cost.Casts += m.scale
			m.cost.CastPairs[class(sp)][class(dp)] += m.scale
			m.perVar[dst].Casts += m.scale
		}
		if sp.MantBits() > ep.MantBits() || sp.MantBits() == ep.MantBits() && sp.ExpBits() > ep.ExpBits() {
			ep = sp
		}
	}
	*flopsOf(&m.cost, ep) += flops * m.scale
	m.perVar[dst].Flops += flops * m.scale
	return dp.Round(x)
}

// TestDeferredMeteringMatchesEagerMeter drives random operation
// sequences over f64, f32, f16, bf16, and custom variables through a Tape
// and the eagerMeter side by side, with precision, scale, and
// semantics changes landing between accesses, and checks Cost, Profile,
// and every value read or stored at random observation points. Each tape
// is then frozen and re-run twice through Reset (the second re-run
// recycles the first's buffers), as the compiler's tape pool runs it, with
// charges left pending at each Reset.
func TestDeferredMeteringMatchesEagerMeter(t *testing.T) {
	// The custom formats are the cases a per-variable rank or class table
	// can get wrong: custom(8,23) and custom(8,7) have a built-in's widths
	// under another Prec value (a cast, but no change of expression
	// precision), custom(4,24) out-ranks F32 in the same 4-byte class, and
	// custom(11,30) is an 8-byte format narrower than F64.
	formats := []Prec{F64, F32, F16, BF16, MustCustom(8, 12),
		MustCustom(8, 23), MustCustom(8, 7), MustCustom(4, 24), MustCustom(11, 30)}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(4)
		tape, m := NewTape(nv), newEagerMeter(nv)
		var arrs []*Array
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		sameBits := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				fail("%s = %g, want %g", what, got, want)
			}
		}
		observe := func(rng *rand.Rand) {
			t.Helper()
			// Profile alone, Cost alone, or both in either order, so each
			// observation point must flush on its own.
			checkCost := func() {
				if got := tape.Cost(); got != m.cost {
					fail("Cost\n got %+v\nwant %+v", got, m.cost)
				}
			}
			checkProfile := func() {
				if got := tape.Profile(); !reflect.DeepEqual(got, m.perVar) {
					fail("Profile\n got %+v\nwant %+v", got, m.perVar)
				}
			}
			switch rng.Intn(4) {
			case 0:
				checkCost()
			case 1:
				checkProfile()
			case 2:
				checkCost()
				checkProfile()
			default:
				checkProfile()
				checkCost()
			}
		}
		value := func(rng *rand.Rand) float64 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		drive := func(rng *rand.Rand, frozen bool) {
			t.Helper()
			for op := 0; op < 120; op++ {
				v := VarID(rng.Intn(nv))
				a := -1
				if len(arrs) > 0 {
					a = rng.Intn(len(arrs))
				}
				switch k := rng.Intn(16); {
				case k == 0 && !frozen:
					p := formats[rng.Intn(len(formats))]
					tape.SetPrec(v, p)
					m.prec[v] = p
				case k == 1 && !frozen:
					on := rng.Intn(2) == 0
					tape.SetComputeOnly(on)
					m.computeOnly = on
				case k == 2:
					s := uint64(1 + rng.Intn(4))
					tape.SetScale(s)
					m.scale = s
				case k == 3 || a < 0: // the array cases below need one to exist
					n := 1 + rng.Intn(8)
					arrs = append(arrs, tape.NewArray(v, n))
					m.newArray(v, n)
				case k == 4:
					srcs := make([]VarID, rng.Intn(4))
					for i := range srcs {
						srcs[i] = VarID(rng.Intn(nv))
					}
					x, flops := value(rng), uint64(rng.Intn(5))
					sameBits("Assign", tape.Assign(v, x, flops, srcs...), m.assign(v, x, flops, srcs))
				case k == 5:
					i := rng.Intn(len(m.arrays[a]))
					m.traffic(a, 1)
					sameBits("Get", arrs[a].Get(i), m.arrays[a][i])
				case k == 6:
					i, x := rng.Intn(len(m.arrays[a])), value(rng)
					arrs[a].Set(i, x)
					m.traffic(a, 1)
					m.store(a, i, x)
				case k == 7:
					lo := rng.Intn(len(m.arrays[a]))
					dst := make([]float64, rng.Intn(len(m.arrays[a])-lo+1))
					arrs[a].GetN(lo, dst)
					m.traffic(a, len(dst))
					for i, x := range dst {
						sameBits("GetN", x, m.arrays[a][lo+i])
					}
				case k == 8:
					lo := rng.Intn(len(m.arrays[a]))
					src := make([]float64, rng.Intn(len(m.arrays[a])-lo+1))
					for i := range src {
						src[i] = value(rng)
						m.store(a, lo+i, src[i])
					}
					arrs[a].SetN(lo, src)
					m.traffic(a, len(src))
				case k == 9:
					x := value(rng)
					arrs[a].Fill(x)
					m.traffic(a, len(m.arrays[a]))
					for i := range m.arrays[a] {
						m.store(a, i, x)
					}
				case k == 10:
					vals := make([]float64, len(m.arrays[a]))
					for i := range vals {
						vals[i] = value(rng)
						m.store(a, i, vals[i])
					}
					arrs[a].SetEach(func(i int) float64 { return vals[i] })
					m.traffic(a, len(vals))
				case k == 11:
					p, n := formats[rng.Intn(len(formats))], uint64(rng.Intn(50))
					tape.AddFlops(p, n)
					*flopsOf(&m.cost, p) += n * m.scale
				case k == 12:
					p, q, n := formats[rng.Intn(len(formats))], formats[rng.Intn(len(formats))], uint64(rng.Intn(50))
					tape.AddCastsBetween(p, q, n)
					m.cost.Casts += n * m.scale
					m.cost.CastPairs[class(p)][class(q)] += n * m.scale
				case k == 13:
					p, n := formats[rng.Intn(len(formats))], uint64(rng.Intn(50))
					tape.AddBytes(p, n)
					*bytesOf(&m.cost, p) += n * m.scale
				case k == 14:
					observe(rng)
				}
			}
			observe(rng)
			for a := range arrs {
				for i, x := range arrs[a].Snapshot() {
					sameBits("Snapshot", x, m.arrays[a][i])
				}
			}
		}

		drive(rng, false)
		tape.Freeze()
		rerun := rng.Int63()
		for range 2 {
			// Charges still pending at Reset belong to the finished run.
			tape.Assign(0, 1, 1, 0)
			arrs[0].Get(0)
			tape.Reset()
			m.cost, m.scale, m.arrays, m.owner = Cost{}, 1, nil, nil
			clear(m.perVar)
			arrs = nil
			drive(rand.New(rand.NewSource(rerun)), true)
		}
	}
}

// TestFreezeLocksConfiguration keeps the misuse panics of the frozen
// lifecycle: a frozen tape rejects configuration changes, and only a
// frozen tape can be rewound.
func TestFreezeLocksConfiguration(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	tape := NewTape(2)
	mustPanic("Reset before Freeze", tape.Reset)
	tape.Freeze()
	mustPanic("SetPrec after Freeze", func() { tape.SetPrec(0, F32) })
	mustPanic("SetComputeOnly after Freeze", func() { tape.SetComputeOnly(true) })
	tape.SetScale(3) // Run bodies set their own scale on frozen tapes
	tape.Reset()
	if tape.Scale() != 1 {
		t.Errorf("Reset left scale %d", tape.Scale())
	}
}

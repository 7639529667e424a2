package mp

import "fmt"

// Tape carries one precision configuration through one benchmark execution
// and meters the work performed against it. The search framework sets the
// precision of each variable before the run and reads the accumulated Cost
// afterwards; a compiled kernel (internal/compile) additionally freezes
// the configuration and rewinds the tape with Reset between runs.
//
// Metering is deferred. The hot calls only count: Assign tallies unscaled
// flops per expression width class, casts, and per-variable attribution,
// and each Array tallies its traffic in elements. The counts are
// multiplied through the charge factors at the next observation point -
// Cost, Profile, or a SetPrec, SetScale, or SetComputeOnly that would
// change a factor. Factors are constant between flushes, so
// sum(n_i)*f == sum(n_i*f) exactly in uint64 arithmetic: the flushed
// counters equal what charging every call on the spot would produce.
//
// The zero Tape is not usable; construct with NewTape.
type Tape struct {
	prec        []Prec
	cost        Cost
	scale       uint64
	perVar      []VarProfile
	computeOnly bool

	// byteFactor[v] is storageWidth(v).Size()*scale and byteSink[v] points
	// at the Cost counter that width accumulates into. Both are refreshed
	// whenever precision, scale, or semantics change, so flushing an
	// Array's pending traffic is a multiply and two adds with no branching.
	byteFactor []uint64
	byteSink   []*uint64

	// class[v] and rank[v] are variable v's precision width class and
	// width rank (see Prec.wclass and Prec.rank), so Assign's
	// expression-precision rule is a table read and an integer compare per
	// source operand.
	class []uint8
	rank  []uint16

	// frozen locks the configuration (see Freeze). arrays lists every live
	// Array so pending traffic can be flushed before any observation or
	// factor change, and recycled/reuseCursor recycle the previous run's
	// buffers when a reset tape re-executes the same allocation sequence.
	frozen      bool
	arrays      []*Array
	recycled    []*Array
	reuseCursor int

	// Deferred arithmetic meters: Assign counts unscaled flops per
	// expression width class, casts (total and by width-class pair), and
	// per-variable attribution here, and flushMeter multiplies the sums
	// through the scale once per observation point.
	pendFlops     [3]uint64
	pendCasts     uint64
	pendCastPairs [3][3]uint64
	pendVar       []VarProfile

	// rec/rep attach an input-stream recorder or replayer (see Stream).
	rec *streamRecorder
	rep *streamReplayer
}

// NewTape returns a Tape for a program with n tunable variables, all at
// double precision (the original program).
func NewTape(n int) *Tape {
	t := &Tape{
		prec:       make([]Prec, n),
		scale:      1,
		perVar:     make([]VarProfile, n),
		pendVar:    make([]VarProfile, n),
		byteFactor: make([]uint64, n),
		byteSink:   make([]*uint64, n),
		class:      make([]uint8, n),
		rank:       make([]uint16, n),
	}
	for v := range t.byteFactor {
		t.refreshVar(VarID(v))
	}
	return t
}

// refreshVar recomputes variable v's precomputed charge factors and
// Assign tables.
func (t *Tape) refreshVar(v VarID) {
	p := t.prec[v]
	t.class[v] = uint8(p.wclass())
	t.rank[v] = p.rank()
	w := t.storageWidth(v)
	t.byteFactor[v] = w.Size() * t.scale
	switch w.wclass() {
	case 1:
		t.byteSink[v] = &t.cost.Bytes32
	case 2:
		t.byteSink[v] = &t.cost.Bytes16
	default:
		t.byteSink[v] = &t.cost.Bytes64
	}
}

// refreshAll recomputes every variable's charge factors (scale or
// semantics changed).
func (t *Tape) refreshAll() {
	for v := range t.byteFactor {
		t.refreshVar(VarID(v))
	}
}

// SetScale sets the problem-size multiplier k (at least 1): every metered
// quantity - flops, traffic, footprint, casts - is charged k times.
//
// Benchmarks use this to model the paper's problem sizes while computing on
// proportionally smaller arrays: numeric accuracy is evaluated on the real
// computation, and the cost counters describe the same loops run at k times
// the size. The search algorithms never observe the difference because they
// only consume (error, modelled time) pairs.
func (t *Tape) SetScale(k uint64) {
	if k < 1 {
		panic("mp: scale must be at least 1")
	}
	t.flush() // pending charges were accrued under the old scale
	t.scale = k
	t.refreshAll()
}

// Scale returns the active problem-size multiplier.
func (t *Tape) Scale() uint64 { return t.scale }

// SetComputeOnly switches the tape to IR-level demotion semantics: a
// demoted variable's arithmetic narrows (values round, flops retire at the
// narrow rate) but its storage does not - arrays stay at their declared
// double width, so traffic and footprint are unchanged.
//
// This models the paper's lower-level analysis tier (Section II,
// "for example on LLVM IR ... the locations can be any SSA register"):
// an IR tool rewrites instructions, not allocations. The paper's LavaMD
// insight - that the cache-behaviour speedups of source-level demotion
// "cannot be discovered from tools that operate on the intermediate
// representation ... because the application memory is not changed" -
// falls out of this switch; see BenchmarkAblationIRLevel.
func (t *Tape) SetComputeOnly(on bool) {
	if t.frozen {
		panic("mp: SetComputeOnly on a frozen tape; semantics are fixed at Freeze")
	}
	t.flush() // pending traffic was accrued at the old storage widths
	t.computeOnly = on
	t.refreshAll()
}

// ComputeOnly reports whether IR-level demotion semantics are active.
func (t *Tape) ComputeOnly() bool { return t.computeOnly }

// storageWidth returns the width variable v's storage uses: its
// configured precision at source level, always double under IR-level
// semantics.
func (t *Tape) storageWidth(v VarID) Prec {
	if t.computeOnly {
		return F64
	}
	return t.prec[v]
}

// NumVars returns the number of tunable variables the tape was built for.
func (t *Tape) NumVars() int { return len(t.prec) }

// SetPrec assigns precision p to variable v; v's live arrays narrow their
// subsequent stores through p. It panics on an out-of-range ID, which
// always indicates a benchmark declaring fewer variables than its Run
// method uses.
func (t *Tape) SetPrec(v VarID, p Prec) {
	if t.frozen {
		panic("mp: SetPrec on a frozen tape; the configuration is fixed at Freeze")
	}
	t.flush() // pending traffic was accrued at the old width
	t.prec[v] = p
	t.refreshVar(v)
	for _, a := range t.arrays {
		if a.v == v {
			a.prec = p
		}
	}
}

// Prec reports the precision the configuration assigns to variable v.
func (t *Tape) Prec(v VarID) Prec { return t.prec[v] }

// Cost returns the work metered so far.
func (t *Tape) Cost() Cost {
	t.flush()
	return t.cost
}

// AddFlops records n floating-point operations retired at precision p;
// the counter is picked by p's width class (a custom format retires at
// its container width). Benchmarks use it for work that is not tied to an
// Assign site, such as reductions folded into library calls.
func (t *Tape) AddFlops(p Prec, n uint64) {
	switch p.wclass() {
	case 1:
		t.cost.Flops32 += n * t.scale
	case 2:
		t.cost.Flops16 += n * t.scale
	default:
		t.cost.Flops64 += n * t.scale
	}
}

// AddCasts records n precision-conversion operations with no width-pair
// attribution (they price at the machine's scalar cast rate).
func (t *Tape) AddCasts(n uint64) { t.cost.Casts += n * t.scale }

// AddCastsBetween records n conversions between formats a and b,
// attributed to their width-class pair so a machine model with a cast
// matrix can price them; the Casts total includes them.
func (t *Tape) AddCastsBetween(a, b Prec, n uint64) {
	t.cost.Casts += n * t.scale
	t.cost.CastPairs[a.wclass()][b.wclass()] += n * t.scale
}

// AddBytes records n bytes of array traffic at precision p (by width
// class), for work that is not routed through an Array accessor.
func (t *Tape) AddBytes(p Prec, n uint64) {
	switch p.wclass() {
	case 1:
		t.cost.Bytes32 += n * t.scale
	case 2:
		t.cost.Bytes16 += n * t.scale
	default:
		t.cost.Bytes64 += n * t.scale
	}
}

// Assign stores x into variable dst: the value is rounded to dst's
// configured precision and returned, flops operations are charged at the
// precision the expression executes in, and one cast is charged for every
// source variable whose precision differs from dst's.
//
// The expression precision rule mirrors C usual-arithmetic conversions
// after a source-level demotion: the arithmetic runs at the widest
// precision among the destination and the named sources, so a narrow
// store only buys narrow arithmetic when the whole expression is narrow.
func (t *Tape) Assign(dst VarID, x float64, flops uint64, srcs ...VarID) float64 {
	dp, dc := t.prec[dst], t.class[dst]
	pv := &t.pendVar[dst]
	// Expression precision: the widest operand wins (widerPrec). Equal
	// ranks mean equal widths and so the same class.
	er, ec := t.rank[dst], dc
	for _, s := range srcs {
		if t.prec[s] != dp {
			t.pendCasts++
			t.pendCastPairs[t.class[s]][dc]++
			pv.Casts++
		}
		if r := t.rank[s]; r > er {
			er, ec = r, t.class[s]
		}
	}
	t.pendFlops[ec] += flops
	pv.Flops += flops
	return dp.Round(x)
}

// Value rounds x to the precision of v without charging any work. It models
// reading a constant or an input value through a typed variable.
func (t *Tape) Value(v VarID, x float64) float64 {
	return t.prec[v].Round(x)
}

// String summarises the configuration: the variable count and how many
// variables the configuration demotes below double precision.
func (t *Tape) String() string {
	demoted := 0
	for _, p := range t.prec {
		if p != F64 {
			demoted++
		}
	}
	return fmt.Sprintf("tape{vars: %d, demoted: %d}", len(t.prec), demoted)
}

package mp

import "fmt"

// Tape carries one precision configuration through one benchmark execution
// and meters the work performed against it. The search framework sets the
// precision of each variable before the run and reads the accumulated Cost
// afterwards; internal/compile applies a whole configuration with
// Configure, which also freezes it, and rewinds the tape with Reset
// between runs so the next run - under any configuration - recycles its
// buffers.
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
// The tape also records its read set, the variables whose precision the
// run observed (see ReadSet).
//
// The zero Tape is not usable; construct with NewTape.
type Tape struct {
	vars        []varState
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

	// frozen locks the configuration (see Freeze). arrays lists every live
	// Array so pending traffic can be flushed before any observation or
	// factor change, and recycled/reuseCursor recycle the previous run's
	// buffers when a reset tape re-executes the same allocation sequence.
	frozen      bool
	arrays      []*Array
	recycled    []*Array
	reuseCursor int

	// Deferred arithmetic meters: Assign counts unscaled flops per
	// expression width class, casts, and per-variable attribution here,
	// and flushMeter multiplies the sums through the scale once per
	// observation point.
	pendFlops [3]uint64
	pendCasts uint64
	pendVar   []VarProfile

	// rec/rep attach an input-stream recorder or replayer (see Stream).
	rec *streamRecorder
	rep *streamReplayer
}

// varState is one variable's configured precision, its width class and
// width rank (see Prec.wclass and Prec.rank), and whether the run has
// observed the precision. One record per variable keeps Assign's
// expression-precision rule to one table read, one integer compare and
// one flag store per operand, behind a single bounds check.
type varState struct {
	prec  Prec
	rank  uint16
	class uint8
	read  bool
}

// NewTape returns a Tape for a program with n tunable variables, all at
// double precision (the original program).
func NewTape(n int) *Tape {
	t := &Tape{
		vars:       make([]varState, n),
		scale:      1,
		perVar:     make([]VarProfile, n),
		pendVar:    make([]VarProfile, n),
		byteFactor: make([]uint64, n),
		byteSink:   make([]*uint64, n),
	}
	for v := range t.byteFactor {
		t.refreshVar(VarID(v))
	}
	return t
}

// refreshVar recomputes variable v's precomputed charge factors and
// Assign tables.
func (t *Tape) refreshVar(v VarID) {
	s := &t.vars[v]
	s.class = uint8(s.prec.wclass())
	s.rank = s.prec.rank()
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
	return t.vars[v].prec
}

// NumVars returns the number of tunable variables the tape was built for.
func (t *Tape) NumVars() int { return len(t.vars) }

// SetPrec assigns precision p to variable v; v's live arrays narrow their
// subsequent stores through p. It panics on an out-of-range ID, which
// always indicates a benchmark declaring fewer variables than its Run
// method uses.
func (t *Tape) SetPrec(v VarID, p Prec) {
	if t.frozen {
		panic("mp: SetPrec on a frozen tape; the configuration is fixed at Freeze")
	}
	t.flush() // pending traffic was accrued at the old width
	t.vars[v].prec = p
	t.refreshVar(v)
	for _, a := range t.arrays {
		if a.v == v {
			a.prec = p
		}
	}
}

// Prec reports the precision the configuration assigns to variable v,
// marking v read.
func (t *Tape) Prec(v VarID) Prec {
	s := &t.vars[v]
	s.read = true
	return s.prec
}

// ReadSet reports, indexed by VarID, which variables' precision the run
// has observed since NewTape or the last Reset. A benchmark sees its
// configuration only through the tape, and every call that reveals a
// precision marks its variables: Assign (destination and every source),
// Value, Prec, String (all of them), and NewArray, whose Array caches
// the precision every accessor and ReadInto/WriteFrom use. A run that
// read the set R therefore repeats step for step under any
// configuration that agrees with this one on R. The caller owns the
// returned slice.
func (t *Tape) ReadSet() []bool {
	out := make([]bool, len(t.vars))
	for v := range t.vars {
		out[v] = t.vars[v].read
	}
	return out
}

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

// AddCasts records n precision-conversion operations that are not tied
// to an Assign site, such as the conversions of mixed-precision file IO.
func (t *Tape) AddCasts(n uint64) { t.cost.Casts += n * t.scale }

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
	d := &t.vars[dst]
	d.read = true
	dp := d.prec
	pv := &t.pendVar[dst]
	// Expression precision: the widest operand wins (widerPrec). Equal
	// ranks mean equal widths and so the same class.
	er, ec := d.rank, d.class
	for _, s := range srcs {
		sv := &t.vars[s]
		sv.read = true
		if sv.prec != dp {
			t.pendCasts++
			pv.Casts++
		}
		if sv.rank > er {
			er, ec = sv.rank, sv.class
		}
	}
	t.pendFlops[ec] += flops
	pv.Flops += flops
	return dp.Round(x)
}

// Value rounds x to the precision of v without charging any work. It models
// reading a constant or an input value through a typed variable.
func (t *Tape) Value(v VarID, x float64) float64 {
	s := &t.vars[v]
	s.read = true
	return s.prec.Round(x)
}

// String summarises the configuration: the variable count and how many
// variables the configuration demotes below double precision. The count
// depends on every variable's precision, so it marks them all read.
func (t *Tape) String() string {
	demoted := 0
	for v := range t.vars {
		s := &t.vars[v]
		s.read = true
		if s.prec != F64 {
			demoted++
		}
	}
	return fmt.Sprintf("tape{vars: %d, demoted: %d}", len(t.vars), demoted)
}

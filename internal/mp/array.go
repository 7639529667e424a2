package mp

// Array is a dynamically allocated floating-point buffer owned by one
// tunable variable. It is the reproduction of the paper's mp_malloc:
// the buffer's element width follows the precision the active configuration
// assigns to its variable, so demoting the variable halves both the
// working-set footprint and the traffic of every access.
//
// Values are stored as float64 for uniform access, but every store narrows
// through the variable's precision first, so a single-precision array holds
// exactly the values a real float buffer would.
type Array struct {
	tape *Tape
	v    VarID
	data []float64

	// prec caches the variable's rounding precision (SetPrec refreshes
	// it), and pending counts deferred traffic in elements, multiplied out
	// at the next flush (see Tape).
	prec    Prec
	pending uint64
}

// NewArray allocates an n-element buffer for variable v and charges its
// footprint at the width the configuration assigns to v. It marks v read:
// the Array caches v's precision, and every accessor rounds and charges
// through it.
func (t *Tape) NewArray(v VarID, n int) *Array {
	t.vars[v].read = true
	w := t.storageWidth(v)
	bytes := uint64(n) * w.Size() * t.scale
	switch w.wclass() {
	case 1:
		t.cost.Footprint32 += bytes
	case 2:
		t.cost.Footprint16 += bytes
	default:
		t.cost.Footprint64 += bytes
	}
	a := t.reuseArray(v, n)
	if a == nil {
		a = &Array{tape: t, v: v, data: make([]float64, n), prec: t.vars[v].prec}
	}
	t.arrays = append(t.arrays, a)
	return a
}

// Len returns the number of elements.
func (a *Array) Len() int { return len(a.data) }

// Var returns the tunable variable that owns the buffer.
func (a *Array) Var() VarID { return a.v }

// Prec reports the element precision under the active configuration.
func (a *Array) Prec() Prec { return a.prec }

// Get loads element i, charging one element of read traffic.
func (a *Array) Get(i int) float64 {
	a.charge(1)
	return a.data[i]
}

// Set stores x into element i, narrowing to the array's precision and
// charging one element of write traffic. It tests for F64 itself instead
// of calling Round so that it stays inlinable (see roundNarrow).
func (a *Array) Set(i int, x float64) {
	a.pending++
	if a.prec != F64 {
		x = a.prec.roundNarrow(x)
	}
	a.data[i] = x
}

// Fill stores x into every element (one rounding, n elements of traffic).
func (a *Array) Fill(x float64) {
	a.charge(uint64(len(a.data)))
	r := a.prec.Round(x)
	for i := range a.data {
		a.data[i] = r
	}
}

// GetN copies elements [lo, lo+len(dst)) into dst, charging len(dst)
// elements of read traffic - exactly equivalent to one Get per element,
// in one traffic charge and one bounds check.
func (a *Array) GetN(lo int, dst []float64) {
	a.charge(uint64(len(dst)))
	copy(dst, a.data[lo:lo+len(dst)])
}

// SetN stores src into elements [lo, lo+len(src)), narrowing each value
// to the array's precision and charging len(src) elements of write
// traffic - exactly equivalent to one Set per element.
func (a *Array) SetN(lo int, src []float64) {
	a.charge(uint64(len(src)))
	p := a.prec
	if p == F64 {
		copy(a.data[lo:lo+len(src)], src)
		return
	}
	for i, x := range src {
		a.data[lo+i] = p.Round(x)
	}
}

// SetEach stores f(i) into every element in index order, narrowing each
// value to the array's precision and charging Len elements of write
// traffic - exactly equivalent to one Set per element. It is the bulk
// form benchmark initialisation loops use: f typically draws from a
// seeded RNG, and the index-order guarantee keeps the value stream
// identical to the element-wise loop it replaces.
func (a *Array) SetEach(f func(i int) float64) {
	a.charge(uint64(len(a.data)))
	t := a.tape
	if t.rep != nil {
		t.rep.fill(a)
		return
	}
	p := a.prec
	if t.rec != nil {
		t.rec.fill(a, p, f)
		return
	}
	for i := range a.data {
		a.data[i] = p.Round(f(i))
	}
}

// Snapshot returns a copy of the buffer contents without charging traffic.
// Verification reads output buffers through Snapshot so that measuring
// quality does not perturb the cost of the run being measured.
func (a *Array) Snapshot() []float64 {
	out := make([]float64, len(a.data))
	copy(out, a.data)
	return out
}

// charge records n elements of traffic, deferred to the next flush.
func (a *Array) charge(n uint64) { a.pending += n }

// flush settles deferred traffic. The charge factors are constant between
// flushes (every factor change flushes first), so one multiply over the
// summed element count equals per-access charging exactly.
func (a *Array) flush() {
	if a.pending == 0 {
		return
	}
	t := a.tape
	bytes := a.pending * t.byteFactor[a.v]
	*t.byteSink[a.v] += bytes
	t.perVar[a.v].Bytes += bytes
	a.pending = 0
}

package mp

// Freeze locks the tape's configuration: from here on SetPrec and
// SetComputeOnly panic, and Reset may rewind the tape for another run.
// The lock keeps a run from changing the configuration it is measured
// under. SetScale stays legal - benchmark Run bodies call it themselves.
func (t *Tape) Freeze() { t.frozen = true }

// Configure applies a whole configuration to a new or reset tape and
// freezes it: variable v takes cfg[v], variables past len(cfg) take F64
// (as on a fresh tape), and computeOnly selects IR-level semantics (see
// SetComputeOnly). The charge tables are refreshed once for all
// variables. Unlike SetPrec and SetComputeOnly it accepts a frozen tape,
// because a reset tape carries no run; it panics while the tape has live
// arrays, whose cached precision and pending traffic belong to the
// configuration in force, and on a cfg longer than the tape (an
// out-of-range index, as in SetPrec).
func (t *Tape) Configure(cfg []Prec, computeOnly bool) {
	if len(t.arrays) != 0 {
		panic("mp: Configure on a tape with live arrays; Reset it first")
	}
	for v := range t.vars {
		t.vars[v].prec = F64
	}
	for v, p := range cfg {
		t.vars[v].prec = p
	}
	t.computeOnly = computeOnly
	t.refreshAll()
	t.frozen = true
}

// flush settles every live Array's pending traffic and the deferred
// arithmetic meters into the cost and profile counters.
func (t *Tape) flush() {
	for _, a := range t.arrays {
		a.flush()
	}
	t.flushMeter()
}

// flushMeter settles the deferred Assign accounting. The scale is
// constant between flushes (SetScale flushes first), so multiplying the
// sums equals per-call charging exactly.
func (t *Tape) flushMeter() {
	if t.pendFlops[0] != 0 {
		t.cost.Flops64 += t.pendFlops[0] * t.scale
		t.pendFlops[0] = 0
	}
	if t.pendFlops[1] != 0 {
		t.cost.Flops32 += t.pendFlops[1] * t.scale
		t.pendFlops[1] = 0
	}
	if t.pendFlops[2] != 0 {
		t.cost.Flops16 += t.pendFlops[2] * t.scale
		t.pendFlops[2] = 0
	}
	if t.pendCasts != 0 {
		t.cost.Casts += t.pendCasts * t.scale
		t.pendCasts = 0
	}
	for v := range t.pendVar {
		p := &t.pendVar[v]
		if p.Flops != 0 {
			t.perVar[v].Flops += p.Flops * t.scale
			p.Flops = 0
		}
		if p.Casts != 0 {
			t.perVar[v].Casts += p.Casts * t.scale
			p.Casts = 0
		}
	}
}

// Reset rewinds a frozen tape for another run: cost and per-variable
// profiles zero, the read set empties, the scale returns to 1, any
// attached input stream detaches, and the run's arrays move to the
// recycle pool so the next run's allocations can reuse their buffers.
// The precision vector and semantics persist until the next Configure.
func (t *Tape) Reset() {
	if !t.frozen {
		panic("mp: Reset on an unfrozen tape; only a frozen configuration can be rewound")
	}
	for v := range t.vars {
		t.vars[v].read = false
	}
	t.cost = Cost{}
	clear(t.perVar)
	clear(t.pendVar)
	t.pendFlops = [3]uint64{}
	t.pendCasts = 0
	// Swap the just-finished run's arrays into the recycle pool (reuse
	// discards their pending traffic); the slice previously used as the
	// pool becomes the (emptied) live list.
	t.arrays, t.recycled = t.recycled[:0], t.arrays
	t.reuseCursor = 0
	t.rec = nil
	t.rep = nil
	if t.scale != 1 {
		t.scale = 1
		t.refreshAll()
	}
}

// reuseArray returns a recycled buffer for (v, n) when the run's
// allocation sequence matches the previous run's, zeroed as a fresh
// allocation would be. Benchmarks allocate deterministically, so after
// the first run this hits every time; on the first divergence the pool
// is dropped for the remainder of the run.
func (t *Tape) reuseArray(v VarID, n int) *Array {
	if t.reuseCursor >= len(t.recycled) {
		return nil
	}
	a := t.recycled[t.reuseCursor]
	if a.v != v || len(a.data) != n {
		t.recycled = t.recycled[:0]
		t.reuseCursor = 0
		return nil
	}
	t.reuseCursor++
	clear(a.data)
	a.pending = 0
	a.prec = t.vars[v].prec
	return a
}

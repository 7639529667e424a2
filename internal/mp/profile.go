package mp

// VarProfile is the per-variable slice of a run's cost: where the traffic,
// arithmetic, and conversions attach. The paper's runtime library exists
// "for instrumentation and profiling"; this is the profiling half, and it
// is what a profile-guided search strategy ranks candidates with.
type VarProfile struct {
	// Bytes is the array traffic attributed to the variable (zero for
	// scalars, which live in registers).
	Bytes uint64
	// Flops is the arithmetic retired at the variable's assignment sites.
	Flops uint64
	// Casts is the conversion work at the variable's precision
	// boundaries.
	Casts uint64
}

// Profile returns the per-variable attribution of the work metered so
// far, indexed by VarID. The caller owns the returned slice.
func (t *Tape) Profile() []VarProfile {
	t.flush()
	out := make([]VarProfile, len(t.perVar))
	copy(out, t.perVar)
	return out
}

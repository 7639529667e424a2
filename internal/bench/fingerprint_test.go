package bench

import "testing"

// TestModelFingerprintSensitivity is the keycheck audit's runtime twin:
// every result-affecting Machine, EnergyModel, and protocol field must
// move the model fingerprint, or two differently-configured runners
// sharing a cache serve each other's results. One case per field; a new
// field that is not mixed in fails here (and in `mixplint` keycheck)
// before it can poison a shared store.
func TestModelFingerprintSensitivity(t *testing.T) {
	base := func() *Runner { return NewRunner(1) }
	cases := []struct {
		field  string
		mutate func(r *Runner)
	}{
		{"Machine.Name", func(r *Runner) { r.Machine.Name = "other" }},
		{"Machine.Rate64", func(r *Runner) { r.Machine.Rate64 *= 2 }},
		{"Machine.Rate32", func(r *Runner) { r.Machine.Rate32 *= 2 }},
		{"Machine.Rate16", func(r *Runner) { r.Machine.Rate16 *= 2 }},
		{"Machine.CastRate", func(r *Runner) { r.Machine.CastRate *= 2 }},
		{"Machine.DRAMBandwidth", func(r *Runner) { r.Machine.DRAMBandwidth *= 2 }},
		{"Machine.RunOverhead", func(r *Runner) { r.Machine.RunOverhead *= 2 }},
		{"Machine.Caches len", func(r *Runner) { r.Machine.Caches = r.Machine.Caches[:2] }},
		{"CacheLevel.Size", func(r *Runner) { r.Machine.Caches[0].Size *= 2 }},
		{"CacheLevel.Bandwidth", func(r *Runner) { r.Machine.Caches[0].Bandwidth *= 2 }},
		{"EnergyModel.FlopJoules[0]", func(r *Runner) { r.Machine.EnergyModel.FlopJoules[0] *= 2 }},
		{"EnergyModel.FlopJoules[1]", func(r *Runner) { r.Machine.EnergyModel.FlopJoules[1] *= 2 }},
		{"EnergyModel.FlopJoules[2]", func(r *Runner) { r.Machine.EnergyModel.FlopJoules[2] *= 2 }},
		{"EnergyModel.ByteJoules", func(r *Runner) { r.Machine.EnergyModel.ByteJoules *= 2 }},
		{"EnergyModel.CastJoules", func(r *Runner) { r.Machine.EnergyModel.CastJoules *= 2 }},
		{"EnergyModel.IdleWatts", func(r *Runner) { r.Machine.EnergyModel.IdleWatts *= 2 }},
		{"Runner.Runs", func(r *Runner) { r.Runs++ }},
	}
	ref := base().ModelFingerprint()
	seen := map[uint64]string{ref: "base"}
	for _, c := range cases {
		r := base()
		c.mutate(r)
		fp := r.ModelFingerprint()
		if fp == ref {
			t.Errorf("mutating %s does not change the model fingerprint", c.field)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutating %s collides with %s", c.field, prev)
		}
		seen[fp] = c.field
	}

	// CacheLevel.Name is the documented keycheck exemption: a display
	// label that Time and Energy never read must NOT key the cache, so
	// renaming a level keeps stored results reachable.
	r := base()
	r.Machine.Caches[0].Name = "renamed"
	if fp := r.ModelFingerprint(); fp != ref {
		t.Errorf("CacheLevel.Name moved the fingerprint (%#x != %#x); it is exempt as display-only", fp, ref)
	}
}

// TestStoreFingerprintCodecVersion: the durable tier's fingerprint must
// shift when either the model or the codec version changes, so an old
// store is refused at Open instead of misdecoded.
func TestStoreFingerprintCodecVersion(t *testing.T) {
	model := NewRunner(1).ModelFingerprint()
	if StoreFingerprint(model) == model {
		t.Error("store fingerprint does not separate from the raw model fingerprint")
	}
	if StoreFingerprint(model) == StoreFingerprint(model^1) {
		t.Error("store fingerprint ignores the model fingerprint")
	}
}

package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mp"
)

func TestBandwidthSteps(t *testing.T) {
	m := Default()
	if got := m.Bandwidth(16 << 10); got != m.Caches[0].Bandwidth {
		t.Errorf("16KiB -> %g, want L1", got)
	}
	if got := m.Bandwidth(64 << 10); got != m.Caches[1].Bandwidth {
		t.Errorf("64KiB -> %g, want L2", got)
	}
	if got := m.Bandwidth(1 << 20); got != m.Caches[2].Bandwidth {
		t.Errorf("1MiB -> %g, want L3", got)
	}
	if got := m.Bandwidth(1 << 30); got != m.DRAMBandwidth {
		t.Errorf("1GiB -> %g, want DRAM", got)
	}
}

func TestBandwidthMonotoneNonIncreasing(t *testing.T) {
	m := Default()
	f := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		if x > y {
			x, y = y, x
		}
		return m.Bandwidth(x) >= m.Bandwidth(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSinglePrecisionComputeIsTwiceAsFast(t *testing.T) {
	m := Default()
	d := m.Time(mp.Cost{Flops64: 1e9})
	s := m.Time(mp.Cost{Flops32: 1e9})
	ratio := (d - m.RunOverhead) / (s - m.RunOverhead)
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("f64/f32 compute ratio = %g, want 2", ratio)
	}
}

func TestMemoryBoundHalvesWithTraffic(t *testing.T) {
	m := Default()
	// Working set fixed in DRAM territory at both widths, so only traffic
	// changes: speedup must be exactly 2 (minus the overhead share).
	d := m.Time(mp.Cost{Bytes64: 2e9, Footprint64: 1 << 30})
	s := m.Time(mp.Cost{Bytes32: 1e9, Footprint32: 1 << 29})
	if d <= s {
		t.Fatalf("double run (%g) should be slower than single (%g)", d, s)
	}
	ratio := (d - m.RunOverhead) / (s - m.RunOverhead)
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("memory-bound ratio = %g, want 2", ratio)
	}
}

func TestCacheStepExceedsTwoX(t *testing.T) {
	m := Default()
	// Working set straddles the L3 boundary: 30 MiB at double precision
	// misses, 15 MiB at single fits. The speedup must exceed the 2x that
	// traffic halving alone can provide - this is the LavaMD mechanism.
	wsD := uint64(30 << 20)
	d := m.Time(mp.Cost{Bytes64: 10 * wsD, Footprint64: wsD})
	s := m.Time(mp.Cost{Bytes32: 10 * wsD / 2, Footprint32: wsD / 2})
	ratio := d / s
	if ratio <= 2 {
		t.Errorf("cache-step speedup = %g, want > 2", ratio)
	}
}

func TestCastsAlwaysAddTime(t *testing.T) {
	m := Default()
	base := mp.Cost{Flops64: 1e8, Bytes64: 1e9, Footprint64: 1 << 30}
	withCasts := base
	withCasts.Casts = 1e8
	if m.Time(withCasts) <= m.Time(base) {
		t.Error("casts must add time even when memory bound")
	}
}

func TestRooflineTakesMax(t *testing.T) {
	m := Default()
	// Compute-dominated: memory contribution must be hidden.
	c := mp.Cost{Flops64: 1e10, Bytes64: 8, Footprint64: 8}
	want := m.RunOverhead + 1e10/m.Rate64
	if got := m.Time(c); math.Abs(got-want) > 1e-12 {
		t.Errorf("Time = %g, want %g", got, want)
	}
}

func TestTimeIsMonotoneInWork(t *testing.T) {
	m := Default()
	f := func(fl64, fl32, by uint32) bool {
		a := mp.Cost{Flops64: uint64(fl64), Flops32: uint64(fl32), Bytes64: uint64(by), Footprint64: 1 << 20}
		b := a
		b.Flops64 += 1000
		b.Bytes64 += 1000
		return m.Time(b) >= m.Time(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasureTrimsAndIsDeterministic(t *testing.T) {
	m1 := Measure(1.0, DefaultRuns, rand.New(rand.NewSource(7)))
	m2 := Measure(1.0, DefaultRuns, rand.New(rand.NewSource(7)))
	if m1 != m2 {
		t.Error("same seed must give identical measurement")
	}
	if m1.Runs != DefaultRuns {
		t.Errorf("Runs = %d", m1.Runs)
	}
	// Trimmed mean stays within the jitter band around the model time.
	if math.Abs(m1.Mean-1.0) > jitterAmplitude {
		t.Errorf("Mean = %g, outside jitter band", m1.Mean)
	}
	// Total accumulates all runs (budget charging).
	if m1.Total < float64(DefaultRuns)*(1-jitterAmplitude) {
		t.Errorf("Total = %g, too small", m1.Total)
	}
}

func TestMeasureMeanScalesLinearly(t *testing.T) {
	f := func(seed int64, scale uint16) bool {
		s := 1 + float64(scale)
		a := Measure(1.0, DefaultRuns, rand.New(rand.NewSource(seed)))
		b := Measure(s, DefaultRuns, rand.New(rand.NewSource(seed)))
		return math.Abs(b.Mean-s*a.Mean) < 1e-9*s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeasurePanicsOnTooFewRuns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for runs < 3")
		}
	}()
	Measure(1.0, 2, rand.New(rand.NewSource(1)))
}

func TestHalfPrecisionQuartersTime(t *testing.T) {
	m := Default()
	// Rate laddering: each narrower precision doubles throughput.
	if m.Rate32 != 2*m.Rate64 || m.Rate16 != 2*m.Rate32 {
		t.Errorf("rate ladder broken: %g/%g/%g", m.Rate64, m.Rate32, m.Rate16)
	}
	// Half-precision compute runs 4x faster than double.
	d := m.Time(mp.Cost{Flops64: 1e9})
	h := m.Time(mp.Cost{Flops16: 1e9})
	ratio := (d - m.RunOverhead) / (h - m.RunOverhead)
	if math.Abs(ratio-4) > 1e-9 {
		t.Errorf("f64/f16 ratio = %g, want 4", ratio)
	}
	// Half-width traffic quarters memory time at fixed bandwidth: both
	// working sets exceed the last cache level.
	wide := m.Time(mp.Cost{Bytes64: 4e9, Footprint64: 1 << 30})
	narrow := m.Time(mp.Cost{Bytes16: 1e9, Footprint16: 1 << 28})
	r := (wide - m.RunOverhead) / (narrow - m.RunOverhead)
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("traffic ratio = %g, want 4", r)
	}
}

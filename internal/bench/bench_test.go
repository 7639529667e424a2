package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mp"
	"repro/internal/telemetry"
	"repro/internal/typedep"
	"repro/internal/verify"
)

// stub is a minimal benchmark: two variables, one cluster; output depends
// on the configuration so tests can see precision take effect.
type stub struct {
	g      *typedep.Graph
	hidden int
}

func newStub(hidden int) *stub {
	g := typedep.NewGraph()
	a := g.Add("a", "f", typedep.ArrayVar)
	b := g.Add("b", "f", typedep.Param)
	g.Connect(a, b)
	return &stub{g: g, hidden: hidden}
}

func (s *stub) Name() string          { return "stub" }
func (s *stub) Kind() Kind            { return Kernel }
func (s *stub) Description() string   { return "test stub" }
func (s *stub) Metric() verify.Metric { return verify.MAE }
func (s *stub) Graph() *typedep.Graph { return s.g }
func (s *stub) HiddenVars() int       { return s.hidden }

func (s *stub) Run(t *mp.Tape, seed int64) Output {
	a := t.NewArray(mp.VarID(0), 4)
	x := 1.0 + 1e-12 // not float32-representable
	for i := 0; i < 4; i++ {
		a.Set(i, x)
	}
	t.AddFlops(t.Prec(0), 100)
	// A hidden literal site, when present and demoted, perturbs the last
	// element so tests can observe RunManualSingle reaching it.
	if s.hidden > 0 {
		lit := mp.VarID(s.g.NumVars())
		a.Set(3, t.Value(lit, x))
	}
	return Output{Values: a.Snapshot()}
}

func TestKindString(t *testing.T) {
	if Kernel.String() != "kernel" || App.String() != "application" {
		t.Error("kind names wrong")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := NewConfig(3)
	if c.Singles() != 0 {
		t.Errorf("fresh config singles = %d", c.Singles())
	}
	c[1] = mp.F32
	if c.Singles() != 1 {
		t.Errorf("singles = %d", c.Singles())
	}
	clone := c.Clone()
	clone[0] = mp.F32
	if c.Singles() != 1 {
		t.Error("Clone aliases the original")
	}
	if c.Key() == clone.Key() {
		t.Error("distinct configs share a key")
	}
	full := AllSingle(3)
	if full.Singles() != 3 {
		t.Errorf("AllSingle singles = %d", full.Singles())
	}
	if NewConfig(0).Key() != "" {
		t.Error("empty config key should be empty")
	}
}

func TestRunnerReferenceIsDouble(t *testing.T) {
	s := newStub(0)
	r := NewRunner(1)
	res := r.Reference(s)
	x := 1.0 + 1e-12
	for i, v := range res.Output.Values {
		if v != x {
			t.Errorf("value[%d] = %g, want unrounded", i, v)
		}
	}
	if res.Cost.Flops64 != 100 || res.Cost.Flops32 != 0 {
		t.Errorf("reference cost = %+v", res.Cost)
	}
	if res.ModelTime <= 0 || res.Measured.Mean <= 0 {
		t.Error("non-positive model time")
	}
}

func TestRunnerAppliesConfig(t *testing.T) {
	s := newStub(0)
	r := NewRunner(1)
	res := r.Run(s, AllSingle(2))
	want := float64(float32(1.0 + 1e-12))
	for i, v := range res.Output.Values {
		if v != want {
			t.Errorf("value[%d] = %g, want narrowed", i, v)
		}
	}
	if res.Cost.Flops32 != 100 {
		t.Errorf("single cost = %+v", res.Cost)
	}
}

func TestRunnerPanicsOnWrongConfigLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong config length")
		}
	}()
	NewRunner(1).Run(newStub(0), NewConfig(5))
}

func TestHiddenVarsStayDoubleUnderSearchConfigs(t *testing.T) {
	s := newStub(1)
	r := NewRunner(1)
	// A search config demotes the two visible variables; the hidden
	// literal must stay double, leaving element 3 unrounded... but it was
	// stored through the (demoted) array, so what matters is that Run does
	// not panic and the tape is sized for the hidden slot.
	res := r.Run(s, AllSingle(2))
	if len(res.Output.Values) != 4 {
		t.Fatal("bad output")
	}
	// RunManualSingle demotes the hidden slot too and must also work.
	manual := r.RunManualSingle(s)
	if len(manual.Output.Values) != 4 {
		t.Fatal("bad manual output")
	}
}

func TestMeasurementDeterministicPerConfig(t *testing.T) {
	s := newStub(0)
	r := NewRunner(9)
	a := r.Run(s, AllSingle(2))
	b := r.Run(s, AllSingle(2))
	if a.Measured != b.Measured {
		t.Error("same config measured differently")
	}
	c := r.Reference(s)
	if a.Measured == c.Measured {
		t.Error("distinct configs share jitter stream and time")
	}
}

func TestRunIRKeepsStorageWide(t *testing.T) {
	s := newStub(0)
	r := NewRunner(1)
	src := r.Run(s, AllSingle(2))
	ir := r.RunIR(s, AllSingle(2))
	// Same numeric effect: both round stores through float32.
	for i := range src.Output.Values {
		if src.Output.Values[i] != ir.Output.Values[i] {
			t.Errorf("value[%d] differs between source and IR demotion", i)
		}
	}
	// Different machine effect: IR demotion keeps traffic and footprint at
	// the double width.
	if ir.Cost.Bytes32 != 0 || ir.Cost.Footprint32 != 0 {
		t.Errorf("IR demotion produced narrow storage: %+v", ir.Cost)
	}
	if ir.Cost.Bytes64 != src.Cost.Bytes32*2 {
		t.Errorf("IR traffic %d, want double-width %d", ir.Cost.Bytes64, src.Cost.Bytes32*2)
	}
	// Compute still narrows.
	if ir.Cost.Flops32 != src.Cost.Flops32 {
		t.Errorf("IR flops32 = %d, want %d", ir.Cost.Flops32, src.Cost.Flops32)
	}
}

// TestRunnerTelemetry checks the per-run accounting: one runs_total series
// per (bench, kind), model-time observations in the histogram, and flop /
// cast / traffic counters matching the cost model.
func TestRunnerTelemetry(t *testing.T) {
	s := newStub(0)
	r := NewRunner(1)
	tel := telemetry.New(nil)
	r.Telemetry = tel

	ref := r.Reference(s)
	cfg := NewConfig(s.Graph().NumVars())
	cfg[0] = mp.F32
	cand := r.Run(s, cfg)

	snap := tel.Snapshot()
	counters := map[string]float64{}
	for _, p := range snap.Counters {
		counters[p.Name+p.Labels] = p.Value
	}
	if got := counters[`mixpbench_bench_runs_total{bench="stub",kind="reference"}`]; got != 1 {
		t.Errorf("reference runs = %g, want 1", got)
	}
	if got := counters[`mixpbench_bench_runs_total{bench="stub",kind="candidate"}`]; got != 1 {
		t.Errorf("candidate runs = %g, want 1", got)
	}
	wantF64 := float64(ref.Cost.Flops64 + cand.Cost.Flops64)
	if got := counters[`mixpbench_bench_flops64_total{bench="stub"}`]; got != wantF64 {
		t.Errorf("flops64 counter = %g, cost model says %g", got, wantF64)
	}
	wantF32 := float64(ref.Cost.Flops32 + cand.Cost.Flops32)
	if got := counters[`mixpbench_bench_flops32_total{bench="stub"}`]; got != wantF32 {
		t.Errorf("flops32 counter = %g, cost model says %g", got, wantF32)
	}
	wantBytes := float64(ref.Cost.Bytes() + cand.Cost.Bytes())
	if got := counters[`mixpbench_bench_traffic_bytes_total{bench="stub"}`]; got != wantBytes {
		t.Errorf("traffic counter = %g, cost model says %g", got, wantBytes)
	}
	for _, h := range snap.Histograms {
		if h.Name == "mixpbench_bench_model_seconds" && h.Count != 2 {
			t.Errorf("model_seconds count = %d, want 2", h.Count)
		}
	}
}

// FuzzParseKey checks the configuration-key parser that rebuilds
// checkpointed and stored configurations: it never panics, and every
// configuration it accepts spells back to a key that parses to the same
// configuration. The seed corpus under testdata/fuzz covers built-in
// digits, custom escapes, unterminated, malformed and out-of-range
// escapes, and the run cache's restricted spelling with '-' for unread
// sites, which must never parse as a configuration.
func FuzzParseKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseKey(s)
		if err != nil {
			return
		}
		if strings.IndexByte(s, '-') >= 0 {
			t.Fatalf("ParseKey(%q) accepted a '-', the restricted spelling of an unread site", s)
		}
		back, err := ParseKey(c.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q) = %v, but its key %q is rejected: %v", s, c, c.Key(), err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("ParseKey(%q) = %v, key %q parses back to %v", s, c, c.Key(), back)
		}
	})
}

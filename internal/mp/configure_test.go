package mp

import (
	"reflect"
	"testing"
)

// TestConfigureRecycledTape runs one tape through a sequence of
// configurations and semantics, Configure before each run and Reset
// after it, and checks every run against a fresh tape configured with
// SetPrec and SetComputeOnly: values, cost, profile, and read set match
// although each run recycles the arrays of a run under another
// configuration.
func TestConfigureRecycledTape(t *testing.T) {
	run := func(tp *Tape) []float64 {
		tp.SetScale(3)
		a := tp.NewArray(0, 16)
		a.SetEach(func(i int) float64 { return float64(i) / 7 })
		sum := 0.0
		for i := 0; i < a.Len(); i++ {
			sum = tp.Assign(1, sum+a.Get(i), 1, 0)
		}
		b := tp.NewArray(2, 4)
		b.Fill(sum)
		return append(b.Snapshot(), tp.Value(3, sum/3))
	}
	configs := []struct {
		cfg         []Prec
		computeOnly bool
	}{
		{nil, false},
		{[]Prec{F32, F32, F16}, false},
		{[]Prec{F32, F32, F16}, true},
		{[]Prec{BF16, F64, MustCustom(5, 7), F32}, false},
		{[]Prec{F64, F32}, true},
	}
	recycled := NewTape(4)
	for round := 0; round < 2; round++ {
		for i, c := range configs {
			fresh := NewTape(4)
			fresh.SetComputeOnly(c.computeOnly)
			for v, p := range c.cfg {
				fresh.SetPrec(VarID(v), p)
			}
			want := run(fresh)

			recycled.Configure(c.cfg, c.computeOnly)
			got := run(recycled)
			if !reflect.DeepEqual(got, want) || recycled.Cost() != fresh.Cost() ||
				!reflect.DeepEqual(recycled.Profile(), fresh.Profile()) ||
				!reflect.DeepEqual(recycled.ReadSet(), fresh.ReadSet()) {
				t.Errorf("round %d config %d: the recycled tape diverges from a fresh one", round, i)
			}
			if !recycled.frozen {
				t.Fatalf("round %d config %d: Configure left the tape unfrozen", round, i)
			}
			mustPanic(t, "Configure with live arrays", func() { recycled.Configure(nil, false) })
			recycled.Reset()
		}
	}
	mustPanic(t, "Configure longer than the tape", func() { NewTape(2).Configure([]Prec{F32, F32, F32}, false) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

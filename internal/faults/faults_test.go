package faults

import (
	"math"
	"strings"
	"testing"
)

func TestDrawDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, Transient: 0.3, Crash: 0.1, Straggler: 0.2}
	a, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 5; attempt++ {
		for _, key := range []string{"kmeans/DD/0.001", "hydro/GP/1e-08", "iccg/HR/1e-08"} {
			if got, want := a.Draw(key, attempt), b.Draw(key, attempt); got != want {
				t.Errorf("Draw(%q, %d) not deterministic: %+v vs %+v", key, attempt, got, want)
			}
		}
	}
}

func TestDrawSeedAndKeySensitivity(t *testing.T) {
	mk := func(seed int64) *Injector {
		in, err := NewInjector(Plan{Seed: seed, Transient: 0.5, Straggler: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(1), mk(2)
	diff := 0
	for i := 0; i < 64; i++ {
		key := strings.Repeat("k", i+1)
		if a.Draw(key, 1) != b.Draw(key, 1) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 1 and 2 draw identical fault sequences")
	}
}

func TestDrawRates(t *testing.T) {
	in, err := NewInjector(Plan{Seed: 3, Transient: 0.25, Crash: 0.25, Straggler: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		f := in.Draw(strings.Repeat("x", i%97)+string(rune('a'+i%26)), 1+i%3)
		counts[f.Kind]++
		switch f.Kind {
		case Transient, Crash:
			if f.FailAfter < 1 || f.FailAfter > DefaultWindow {
				t.Fatalf("FailAfter = %d outside [1, %d]", f.FailAfter, DefaultWindow)
			}
		case Straggler:
			if f.Slowdown != DefaultSlowdown {
				t.Fatalf("Slowdown = %g, want default %g", f.Slowdown, DefaultSlowdown)
			}
		}
	}
	for _, k := range []Kind{None, Transient, Crash, Straggler} {
		frac := float64(counts[k]) / n
		if math.Abs(frac-0.25) > 0.05 {
			t.Errorf("kind %v frequency %.3f, want ~0.25", k, frac)
		}
	}
}

func TestNilInjectorNeverInjects(t *testing.T) {
	var in *Injector
	if f := in.Draw("any", 1); f.Kind != None {
		t.Errorf("nil injector drew %+v", f)
	}
	if p := in.Plan(); p.Enabled() {
		t.Errorf("nil injector plan enabled: %+v", p)
	}
	// A no-op plan yields a nil injector.
	in, err := NewInjector(Plan{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Error("disabled plan produced a non-nil injector")
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Transient: -0.1},
		{Crash: 1.5},
		{Transient: 0.6, Crash: 0.3, Straggler: 0.2}, // sum > 1
		{Straggler: 0.1, Slowdown: 0.5},
		{Transient: 0.1, Window: -3},
		{Transient: math.NaN()},
		{Straggler: math.NaN()},
		{Crash: math.Inf(1)},
		{Straggler: 0.1, Slowdown: math.NaN()},
		{Straggler: 1, Slowdown: math.Inf(1)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", p)
		}
	}
	if err := (Plan{Transient: 0.5, Crash: 0.25, Straggler: 0.25, Slowdown: 2, Window: 8}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("transient=0.2, crash=0.05,straggler=0.1,slowdown=3,window=8,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, Transient: 0.2, Crash: 0.05, Straggler: 0.1, Slowdown: 3, Window: 8}
	if p != want {
		t.Errorf("ParseSpec = %+v, want %+v", p, want)
	}
	for _, bad := range []string{
		"transient",               // no value
		"transient=lots",          // not a number
		"flips=0.5",               // unknown key
		"transient=2",             // invalid rate
		"seed=9.5",                // non-integer seed
		"transient=0.9,crash=0.9", // rates sum > 1
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// Empty spec is the zero (disabled) plan.
	p, err = ParseSpec("")
	if err != nil || p.Enabled() {
		t.Errorf("ParseSpec(\"\") = %+v, %v", p, err)
	}
}

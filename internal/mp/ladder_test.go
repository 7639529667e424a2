package mp

import "testing"

func TestParsePrec(t *testing.T) {
	cases := []struct {
		in   string
		want Prec
	}{
		{"f64", F64}, {"double", F64}, {"fp64", F64}, {"F64", F64},
		{"f32", F32}, {"single", F32}, {"float", F32},
		{"f16", F16}, {"half", F16}, {"FP16", F16},
		{"bf16", BF16}, {"bfloat16", BF16}, {"BF16", BF16},
		{" f32 ", F32},
		{"custom(5,10)", MustCustom(5, 10)},
		{"custom(8, 7)", MustCustom(8, 7)},
		{"CUSTOM(6,9)", MustCustom(6, 9)},
	}
	for _, c := range cases {
		got, err := ParsePrec(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrec(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "f128", "custom(5)", "custom(5,10", "custom(x,y)", "custom(1,10)", "custom(5,99)"} {
		if _, err := ParsePrec(bad); err == nil {
			t.Errorf("ParsePrec(%q) succeeded", bad)
		}
	}
}

func TestParseLadder(t *testing.T) {
	l, err := ParseLadder("")
	if err != nil || !l.Equal(DefaultLadder()) || !l.IsDefault() {
		t.Errorf("ParseLadder(\"\") = %v, %v", l, err)
	}
	l, err = ParseLadder("f64,f32,f16")
	if err != nil || !l.Equal(Ladder{F64, F32, F16}) {
		t.Errorf("ParseLadder(f64,f32,f16) = %v, %v", l, err)
	}
	if l.IsDefault() {
		t.Error("three-rung ladder reported as default")
	}
	// Commas inside custom(e,m) must not split fields.
	l, err = ParseLadder("f64,custom(8,23),bf16")
	if err != nil || !l.Equal(Ladder{F64, MustCustom(8, 23), BF16}) {
		t.Errorf("ParseLadder with custom = %v, %v", l, err)
	}
	if l.String() != "f64,custom(8,23),bf16" {
		t.Errorf("String() = %q", l.String())
	}
	// Round trip: String parses back to an equal ladder.
	back, err := ParseLadder(l.String())
	if err != nil || !back.Equal(l) {
		t.Errorf("round trip = %v, %v", back, err)
	}

	for _, bad := range []string{
		"f64",          // one rung
		"f32,f16",      // rung 0 not f64
		"f64,f32,f32",  // repeated format
		"f64,f16,f32",  // widening step
		"f64,bf16,f16", // bf16 is narrower than f16 in mantissa
		"f64,junk",
	} {
		if _, err := ParseLadder(bad); err == nil {
			t.Errorf("ParseLadder(%q) succeeded", bad)
		}
	}
}

func TestLadderValidate(t *testing.T) {
	if err := DefaultLadder().Validate(); err != nil {
		t.Errorf("default ladder invalid: %v", err)
	}
	if err := (Ladder{F64, F32, F16, MustCustom(4, 3)}).Validate(); err != nil {
		t.Errorf("four-rung ladder invalid: %v", err)
	}
	if err := (Ladder{F64}).Validate(); err == nil {
		t.Error("single-rung ladder validated")
	}
	if err := (Ladder{F32, F16}).Validate(); err == nil {
		t.Error("ladder without f64 base validated")
	}
	if err := (Ladder{F64, F16, F32}).Validate(); err == nil {
		t.Error("widening ladder validated")
	}
}

func TestLadderIsDefault(t *testing.T) {
	if !Ladder(nil).IsDefault() || !DefaultLadder().IsDefault() {
		t.Error("nil/default ladder not recognized as default")
	}
	if (Ladder{F64, F16}).IsDefault() {
		t.Error("{f64,f16} reported as default")
	}
}

// FuzzParseLadder checks the precisions grammar that ?precisions= and
// the -precisions flag feed from outside the process: ParseLadder never
// panics, and every ladder it accepts renders (String) to text it
// accepts again as an equal ladder.
func FuzzParseLadder(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		l, err := ParseLadder(s)
		if err != nil {
			return
		}
		back, err := ParseLadder(l.String())
		if err != nil {
			t.Fatalf("ParseLadder(%q) = %v, but its rendering %q is rejected: %v", s, l, l.String(), err)
		}
		if !back.Equal(l) {
			t.Fatalf("ParseLadder(%q) = %v, rendering %q parses back to %v", s, l, l.String(), back)
		}
	})
}

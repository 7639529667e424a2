package faults

import (
	"fmt"
	"strconv"
	"testing"
)

// renderSpec writes p as the key=value fields ParseSpec reads, with
// every float in its shortest exact form.
func renderSpec(p Plan) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return fmt.Sprintf("seed=%d,transient=%s,crash=%s,straggler=%s,slowdown=%s,window=%d",
		p.Seed, g(p.Transient), g(p.Crash), g(p.Straggler), g(p.Slowdown), p.Window)
}

// FuzzParseSpec checks the CLI -faults string: ParseSpec never panics,
// and every plan it accepts passes Validate and NewInjector, parses back
// to itself when rendered as key=value fields, and draws only faults in
// range - a transient or crash strikes at a paid evaluation in
// [1, window], a straggler runs at least as long as it would have. The
// seed corpus under testdata/fuzz covers the documented example, the
// empty spec, spaces, alternative number spellings, the extremes of
// seed and window, and rejected rates, slowdowns, windows and fields.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which Validate rejects: %v", spec, p, err)
		}
		in, err := NewInjector(p)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which NewInjector rejects: %v", spec, p, err)
		}
		rendered := renderSpec(p)
		if back, err := ParseSpec(rendered); err != nil || back != p {
			t.Fatalf("ParseSpec(%q) = %+v, but its rendering %q parses to %+v, %v", spec, p, rendered, back, err)
		}
		window := in.Plan().Window
		for _, key := range []string{"", "job", spec} {
			for attempt := 1; attempt <= 4; attempt++ {
				switch ft := in.Draw(key, attempt); ft.Kind {
				case Transient, Crash:
					if ft.FailAfter < 1 || ft.FailAfter > window {
						t.Fatalf("plan %+v drew %v at evaluation %d, outside [1, %d]", in.Plan(), ft.Kind, ft.FailAfter, window)
					}
				case Straggler:
					if !(ft.Slowdown >= 1) {
						t.Fatalf("plan %+v drew a straggler with slowdown %g", in.Plan(), ft.Slowdown)
					}
				}
			}
		}
	})
}

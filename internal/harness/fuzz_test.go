package harness

import (
	"math"
	"testing"
)

// FuzzParseCampaign checks the decoder of mixpd's POST /campaigns bodies
// and of mixpbench -config files: it never panics, and every campaign it
// accepts carries finite, positive thresholds and finite fault and retry
// numbers, since a NaN or an infinity passes range checks and then
// reaches results and history archives that JSON cannot encode. The
// seed corpus under testdata/fuzz holds the five configs/*.yaml files
// and the non-finite threshold, slowdown, straggler-rate, and backoff
// documents the parser once accepted.
func FuzzParseCampaign(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseCampaign(src)
		if err != nil {
			return
		}
		for _, s := range c.Specs {
			if th := s.Analysis.Threshold; !(th > 0) || math.IsInf(th, 1) {
				t.Errorf("entry %q: accepted threshold %g", s.Name, th)
			}
		}
		for name, v := range map[string]float64{
			"transient":      c.Faults.Transient,
			"crash":          c.Faults.Crash,
			"straggler":      c.Faults.Straggler,
			"slowdown":       c.Faults.Slowdown,
			"backoff_base":   c.Retry.BaseSeconds,
			"backoff_factor": c.Retry.Factor,
			"backoff_cap":    c.Retry.MaxSeconds,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("accepted %s %g", name, v)
			}
		}
	})
}

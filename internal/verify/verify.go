// Package verify is the HPC-MixPBench verification library. It quantifies
// the accuracy loss of an approximated execution by comparing its output to
// the output of the original double-precision run, using the error metrics
// the paper ships: Mean Absolute Error (MAE), Root Mean Square Error
// (RMSE), Mean Square Error (MSE), coefficient of determination (R2), and
// Misclassification Rate (MCR).
//
// Metric choice is per benchmark: continuous outputs use MAE (easy to
// interpret) or RMSE (penalises large errors), classification outputs such
// as K-means cluster assignments use MCR. The library is also the single
// point where a quality threshold is enforced, including the policy for
// non-finite output: a configuration whose output contains NaN or Inf where
// the reference does not has destroyed the result and always fails, which
// is how SRAD's full-single conversion is rejected no matter how loose the
// threshold is.
package verify

import (
	"fmt"
	"math"
)

// Metric identifies one of the library's error metrics.
type Metric uint8

const (
	// MAE is the mean absolute error, mean(|ref-got|).
	MAE Metric = iota
	// RMSE is the root mean square error, sqrt(mean((ref-got)^2)).
	RMSE
	// MSE is the mean square error, mean((ref-got)^2).
	MSE
	// R2 is 1 - coefficient of determination. The library reports it as a
	// loss (0 is perfect agreement) so every metric obeys "lower is
	// better" and a single threshold comparison works for all of them.
	R2
	// MCR is the misclassification rate: the fraction of positions whose
	// rounded integer label differs from the reference label.
	MCR
)

// metricNames indexes Metric values; ParseMetric accepts these names.
var metricNames = [...]string{"MAE", "RMSE", "MSE", "R2", "MCR"}

// String returns the paper's abbreviation for the metric (or the
// registered name of a custom metric).
func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	if r, ok := lookupCustom(m); ok {
		return r.name
	}
	return fmt.Sprintf("Metric(%d)", uint8(m))
}

// ParseMetric converts a metric abbreviation (as used in the harness YAML
// configuration files) to a Metric, consulting both the built-ins and the
// registered custom metrics.
func ParseMetric(s string) (Metric, error) {
	for i, n := range metricNames {
		if n == s {
			return Metric(i), nil
		}
	}
	if id, ok := lookupCustomName(s); ok {
		return id, nil
	}
	return 0, fmt.Errorf("verify: unknown metric %q", s)
}

// Compute evaluates metric m over the reference and approximated outputs.
// The slices must have equal non-zero length. A NaN result is a valid
// outcome (it reports that the approximation produced non-finite values)
// and is handled by Check.
func Compute(m Metric, ref, got []float64) (float64, error) {
	if len(ref) != len(got) {
		return 0, fmt.Errorf("verify: output length %d does not match reference length %d", len(got), len(ref))
	}
	if len(ref) == 0 {
		return 0, fmt.Errorf("verify: empty outputs")
	}
	switch m {
	case MAE:
		return mae(ref, got), nil
	case RMSE:
		return math.Sqrt(mse(ref, got)), nil
	case MSE:
		return mse(ref, got), nil
	case R2:
		return r2Loss(ref, got), nil
	case MCR:
		return mcr(ref, got), nil
	default:
		if r, ok := lookupCustom(m); ok {
			return r.fn(ref, got), nil
		}
		return 0, fmt.Errorf("verify: unknown metric %v", m)
	}
}

func mae(ref, got []float64) float64 {
	sum := 0.0
	for i := range ref {
		sum += math.Abs(ref[i] - got[i])
	}
	return sum / float64(len(ref))
}

func mse(ref, got []float64) float64 {
	sum := 0.0
	for i := range ref {
		d := ref[i] - got[i]
		sum += d * d
	}
	return sum / float64(len(ref))
}

// r2Loss returns 1 - R^2 where R^2 = 1 - SS_res/SS_tot. A constant
// reference makes SS_tot zero; the loss is then 0 for exact agreement and
// +Inf otherwise.
func r2Loss(ref, got []float64) float64 {
	mean := 0.0
	for _, v := range ref {
		mean += v
	}
	mean /= float64(len(ref))
	ssRes, ssTot := 0.0, 0.0
	for i := range ref {
		d := ref[i] - got[i]
		ssRes += d * d
		t := ref[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return ssRes / ssTot
}

// mcr treats each value as a class label (rounded to nearest integer) and
// returns the fraction of mismatches. NaN labels always mismatch.
func mcr(ref, got []float64) float64 {
	wrong := 0
	for i := range ref {
		r, g := math.Round(ref[i]), math.Round(got[i])
		if r != g || math.IsNaN(r) != math.IsNaN(g) {
			wrong++
		}
	}
	return float64(wrong) / float64(len(ref))
}

// Verdict is the outcome of checking one configuration against a quality
// threshold.
type Verdict struct {
	// Error is the computed metric value. NaN records a run whose output
	// contains non-finite values the reference does not.
	Error float64
	// Passed reports whether the configuration satisfies the threshold.
	Passed bool
}

// Check computes metric m and compares it against threshold. A
// configuration passes when the error is finite and does not exceed the
// threshold. Outputs that are non-finite where the reference is finite fail
// unconditionally and report a NaN error, matching the paper's treatment of
// SRAD ("the output quality is completely destroyed ... NaN").
//
// The scan tests each output value once; only a non-finite one pays for
// a look at the reference.
func Check(m Metric, ref, got []float64, threshold float64) (Verdict, error) {
	for i, g := range got {
		if finite(g) {
			continue
		}
		if i < len(ref) && !finite(ref[i]) {
			continue // reference itself is non-finite: nothing to preserve
		}
		return Verdict{Error: math.NaN(), Passed: false}, nil
	}
	e, err := Compute(m, ref, got)
	if err != nil {
		return Verdict{}, err
	}
	if math.IsNaN(e) {
		return Verdict{Error: e, Passed: false}, nil
	}
	return Verdict{Error: e, Passed: e <= threshold}, nil
}

// expMask selects a float64's exponent bits. They are all ones exactly
// for NaN and ±Inf, so finiteness is one mask and compare.
const expMask = 0x7ff << 52

func finite(x float64) bool { return math.Float64bits(x)&expMask != expMask }

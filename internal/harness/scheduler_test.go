package harness

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// namedBench is a benchmark stub that only knows its name: feedOrder
// reads nothing else.
type namedBench struct {
	bench.Benchmark
	name string
}

func (b namedBench) Name() string { return b.name }

// programJobs builds one job per entry. An entry "p" resolves to a
// benchmark named p, each job with its own Spec.Bin, so only the name
// can group them; "?bin" leaves Benchmark nil with Spec.Bin bin.
func programJobs(programs ...string) []Job {
	jobs := make([]Job, len(programs))
	for i, p := range programs {
		if bin, ok := strings.CutPrefix(p, "?"); ok {
			jobs[i].Spec.Bin = bin
			continue
		}
		jobs[i].Benchmark = namedBench{name: p}
		jobs[i].Spec.Bin = "bin" + strconv.Itoa(i)
	}
	return jobs
}

func TestFeedOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		programs []string
		want     []int
	}{
		{"empty", nil, []int{}},
		{"one program", []string{"a", "a", "a"}, []int{0, 1, 2}},
		{"all distinct", []string{"a", "b", "c"}, []int{0, 1, 2}},
		{"two by three", []string{"a", "a", "a", "b", "b", "b"}, []int{0, 3, 1, 4, 2, 5}},
		// a×3, b×1, c×2 gives a0 b0 c0 a1 c1 a2.
		{"uneven groups", []string{"a", "a", "a", "b", "c", "c"}, []int{0, 3, 4, 1, 5, 2}},
		// Programs rank by first appearance, even when submissions
		// interleave: b appears first.
		{"first appearance", []string{"b", "a", "b", "c", "a", "b"}, []int{0, 1, 3, 2, 4, 5}},
		// A nil Benchmark falls back to Spec.Bin, which groups it with
		// a resolved benchmark of that name and with other unresolved
		// jobs of that binary.
		{"nil benchmark", []string{"?a", "a", "b"}, []int{0, 2, 1}},
		{"nil benchmarks grouped", []string{"?x", "?x", "a"}, []int{0, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := feedOrder(programJobs(tc.programs...))
			if !slices.Equal(got, tc.want) {
				t.Errorf("feedOrder(%q) = %v, want %v", tc.programs, got, tc.want)
			}
			perm := slices.Clone(got)
			slices.Sort(perm)
			for i, v := range perm {
				if v != i || len(perm) != len(tc.programs) {
					t.Fatalf("feedOrder(%q) = %v is not a permutation of 0..%d", tc.programs, got, len(tc.programs)-1)
				}
			}
		})
	}
}

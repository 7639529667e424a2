package suite

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
)

// TestOutputsExactSize checks that every port returns its output with no
// spare capacity. The run cache keeps each output for the life of the
// process, so the spare capacity would stay resident with it. A window
// at the end of a larger buffer has none yet pins the whole buffer;
// TestRecordingRunAllocations bounds iccg's output by what it allocates.
func TestOutputsExactSize(t *testing.T) {
	for _, b := range All() {
		r := bench.NewRunner(42)
		r.Compiler = compile.New(nil)
		if v := r.Run(b, nil).Output.Values; len(v) != cap(v) {
			t.Errorf("%s: output holds %d values in a slice of capacity %d", b.Name(), len(v), cap(v))
		}
	}
}

// TestRecordingRunAllocations bounds what the first run of iccg and
// diff-predictor allocates on a fresh compiler, tape arrays included.
// That run records the input stream. Both ports refill one array from a
// re-created generator on every repetition (7 and 10 times), and the
// stream keeps that fill once. Each limit is about 1.5 times the run's
// arrays, one copy of each distinct fill and its output. A stream that
// kept a copy per refill would exceed it by megabytes.
func TestRecordingRunAllocations(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit uint64
	}{
		{"iccg", 3 << 20},           // arrays 1 MiB, fills 1 MiB, output 8 KiB
		{"diff-predictor", 1 << 20}, // arrays 224 KiB, fills 224 KiB, output 192 KiB
	} {
		b, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		r := bench.NewRunner(42)
		r.Compiler = compile.New(nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Run(b, nil)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.limit {
			t.Errorf("%s: the recording run allocated %d KiB, want at most %d KiB", c.name, got>>10, c.limit>>10)
		} else {
			t.Logf("%s: the recording run allocated %d KiB (limit %d KiB)", c.name, got>>10, c.limit>>10)
		}
		if s := r.Compiler.Stats(); s.StreamRecords != 1 {
			t.Errorf("%s: %d stream recordings, want the run to record its stream", c.name, s.StreamRecords)
		}
	}
}

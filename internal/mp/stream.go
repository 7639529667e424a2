package mp

import (
	"fmt"
	"math/rand"
)

// Stream is one recorded input trace of a benchmark run: the raw outputs
// of every seeded generator the Run body created through Tape.Rand, and
// the pre-rounding value sequence of every bulk SetEach initialisation.
// Input generation is a pure function of the workload seed for benchmarks
// that declare it (bench.PureIniter) - the draw pattern never depends on
// the precision configuration - so a stream recorded under one
// configuration replays under every other: bulk initialisations become
// straight copies narrowed through the replaying array's precision, and
// scalar draws come back as the recorded generator outputs, skipping the
// generator arithmetic and the per-element closure calls entirely. The
// replayed values are bit-identical to a live run by construction: they
// are the very values the live run produced, captured before rounding.
//
// A Stream is immutable once recorded and safe for concurrent replay;
// per-run replay state lives on the tape.
type Stream struct {
	seeds []int64    // seed of each generator, in creation order
	draws [][]uint64 // raw Source64 outputs per generator, in draw order
	fills []fillRec  // every SetEach, in call order
}

// fillRec is one recorded SetEach: the pre-rounding f(i) outputs and the
// per-generator draw counts after the fill completed, so replay leaves
// every generator exactly where the live run would have.
type fillRec struct {
	values []float64
	after  []int
}

// Draws reports the total recorded generator outputs (diagnostics).
func (s *Stream) Draws() int {
	n := 0
	for _, d := range s.draws {
		n += len(d)
	}
	return n
}

// Fills reports the number of recorded bulk initialisations (diagnostics).
func (s *Stream) Fills() int { return len(s.fills) }

// Rand returns the seeded generator benchmark Run bodies draw their
// inputs from. It is the drop-in form of rand.New(rand.NewSource(seed)):
// with no stream attached (a fresh tape, or a benchmark that does not
// declare seed-pure inputs) it constructs exactly that generator; under
// internal/compile it additionally records the draw stream on the
// program's first run per seed and replays it on every later one (see
// Stream).
func (t *Tape) Rand(seed int64) *rand.Rand {
	if t.rep != nil {
		return rand.New(t.rep.source(seed))
	}
	if t.rec != nil {
		return rand.New(t.rec.source(seed))
	}
	return rand.New(rand.NewSource(seed))
}

// StartRecording begins capturing this run's input trace. internal/compile
// calls it on the first run per (benchmark, seed).
func (t *Tape) StartRecording() {
	t.rec = &streamRecorder{}
}

// FinishRecording detaches and returns the captured stream.
func (t *Tape) FinishRecording() *Stream {
	rec := t.rec
	t.rec = nil
	if rec == nil || rec.broken {
		return nil
	}
	s := &Stream{seeds: rec.seeds, fills: rec.fills}
	s.draws = make([][]uint64, len(rec.srcs))
	for i, src := range rec.srcs {
		s.draws[i] = src.draws
	}
	return s
}

// Replay serves this run's input generation from a previously recorded
// stream.
func (t *Tape) Replay(s *Stream) {
	t.rep = &streamReplayer{stream: s}
}

// streamRecorder captures a run's generator outputs and bulk fills.
type streamRecorder struct {
	seeds  []int64
	srcs   []*recordSource
	fills  []fillRec
	broken bool
}

// source wraps a fresh seeded generator so its outputs are captured.
func (r *streamRecorder) source(seed int64) rand.Source {
	base := rand.NewSource(seed)
	s64, ok := base.(rand.Source64)
	if !ok {
		// Never the case for math/rand, but fall back to live draws and
		// discard the recording rather than publish a partial stream.
		r.broken = true
		return base
	}
	src := &recordSource{src: s64}
	r.seeds = append(r.seeds, seed)
	r.srcs = append(r.srcs, src)
	return src
}

// fill captures one SetEach: it stores f(i) through the array exactly as
// the live loop would while keeping the pre-rounding values.
func (r *streamRecorder) fill(a *Array, p Prec, f func(i int) float64) {
	vals := make([]float64, len(a.data))
	for i := range a.data {
		x := f(i)
		vals[i] = x
		a.data[i] = p.Round(x)
	}
	after := make([]int, len(r.srcs))
	for i, src := range r.srcs {
		after[i] = len(src.draws)
	}
	r.fills = append(r.fills, fillRec{values: vals, after: after})
}

// recordSource captures every output of the underlying seeded source.
// Int63 and Uint64 results are interleaved in one stream because replay
// issues the identical call sequence.
type recordSource struct {
	src   rand.Source64
	draws []uint64
}

func (s *recordSource) Int63() int64 {
	v := s.src.Int63()
	s.draws = append(s.draws, uint64(v))
	return v
}

func (s *recordSource) Uint64() uint64 {
	v := s.src.Uint64()
	s.draws = append(s.draws, v)
	return v
}

func (s *recordSource) Seed(seed int64) { s.src.Seed(seed) }

// streamReplayer serves a run's input generation from a recorded stream.
type streamReplayer struct {
	stream   *Stream
	srcs     []*replaySource
	nextFill int
}

// source returns the replaying generator for the next Tape.Rand call.
// Creation order and seeds must match the recording run; a mismatch
// means the benchmark's input generation is configuration-dependent,
// which violates the PureInit contract the stream was gated on.
func (r *streamReplayer) source(seed int64) rand.Source {
	k := len(r.srcs)
	if k >= len(r.stream.seeds) || r.stream.seeds[k] != seed {
		panic(fmt.Sprintf("mp: replayed generator %d (seed %d) does not match the recorded run; benchmark input generation is not a pure function of the workload seed", k, seed))
	}
	src := &replaySource{draws: r.stream.draws[k]}
	r.srcs = append(r.srcs, src)
	return src
}

// fill serves one SetEach from the recorded value sequence, narrowing
// through the array's precision, then advances every generator past the
// draws the recorded fill consumed.
func (r *streamReplayer) fill(a *Array) {
	if r.nextFill >= len(r.stream.fills) {
		panic("mp: replayed run performs more bulk initialisations than the recorded run; benchmark input generation is not a pure function of the workload seed")
	}
	rec := &r.stream.fills[r.nextFill]
	r.nextFill++
	if len(rec.values) != len(a.data) {
		panic(fmt.Sprintf("mp: replayed bulk initialisation of %d elements, recorded %d; benchmark input generation is not a pure function of the workload seed", len(a.data), len(rec.values)))
	}
	p := a.prec
	if p == F64 {
		copy(a.data, rec.values)
	} else {
		for i, x := range rec.values {
			a.data[i] = p.Round(x)
		}
	}
	for i, src := range r.srcs {
		if i < len(rec.after) {
			src.i = rec.after[i]
		}
	}
}

// replaySource serves the recorded outputs of one seeded generator.
type replaySource struct {
	draws []uint64
	i     int
}

func (s *replaySource) Int63() int64 {
	if s.i >= len(s.draws) {
		panic("mp: replayed generator exhausted its recorded draws; benchmark input generation is not a pure function of the workload seed")
	}
	v := s.draws[s.i]
	s.i++
	return int64(v)
}

func (s *replaySource) Uint64() uint64 {
	if s.i >= len(s.draws) {
		panic("mp: replayed generator exhausted its recorded draws; benchmark input generation is not a pure function of the workload seed")
	}
	v := s.draws[s.i]
	s.i++
	return v
}

func (s *replaySource) Seed(int64) {
	panic("mp: a replayed generator cannot be reseeded")
}

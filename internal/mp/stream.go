package mp

import (
	"fmt"
	"math/rand"
)

// Stream is one recorded input trace of a benchmark run: the
// pre-rounding value sequence of every bulk SetEach initialisation, and
// the raw outputs of every seeded generator the Run body created through
// Tape.Rand that were drawn outside those initialisations. Input
// generation is a pure function of the workload seed for benchmarks that
// declare it (bench.PureIniter) - the draw pattern never depends on the
// precision configuration - so a stream recorded under one configuration
// replays under every other: bulk initialisations become straight copies
// narrowed through the replaying array's precision, and scalar draws come
// back as the recorded generator outputs, skipping the generator
// arithmetic and the per-element closure calls entirely. A fill's own
// draws are not kept: replay never runs the fill's closure, so the draw a
// live run makes next after a fill is exactly the next recorded one. The
// replayed values are bit-identical to a live run by construction: they
// are the very values the live run produced, captured before rounding.
//
// A Stream is immutable once recorded and safe for concurrent replay;
// per-run replay state lives on the tape.
type Stream struct {
	seeds []int64     // seed of each generator, in creation order
	draws [][]uint64  // raw Source64 outputs per generator outside fills, in draw order
	fills [][]float64 // pre-rounding f(i) outputs of every SetEach, in call order
}

// Rand returns the seeded generator benchmark Run bodies draw their
// inputs from. It is the drop-in form of rand.New(rand.NewSource(seed)):
// with no stream attached (a fresh tape, or a benchmark that does not
// declare seed-pure inputs) it constructs exactly that generator; under
// internal/compile it additionally records, on the program's first run
// per seed, the draws made outside bulk initialisations, and replays
// them on every later one (see Stream).
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

// streamRecorder captures a run's bulk fills and the generator outputs
// drawn outside them. filling is set while a SetEach runs: its closure's
// draws are covered by the recorded values, so the sources skip them.
type streamRecorder struct {
	seeds   []int64
	srcs    []*recordSource
	fills   [][]float64
	filling bool
	broken  bool
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
	src := &recordSource{src: s64, rec: r}
	r.seeds = append(r.seeds, seed)
	r.srcs = append(r.srcs, src)
	return src
}

// fill captures one SetEach: it stores f(i) through the array exactly as
// the live loop would while keeping the pre-rounding values.
func (r *streamRecorder) fill(a *Array, p Prec, f func(i int) float64) {
	vals := make([]float64, len(a.data))
	r.filling = true
	for i := range a.data {
		x := f(i)
		vals[i] = x
		a.data[i] = p.Round(x)
	}
	r.filling = false
	r.fills = append(r.fills, vals)
}

// recordSource captures the outputs of the underlying seeded source drawn
// outside bulk fills. Int63 and Uint64 results are interleaved in one
// stream because replay issues the identical call sequence.
type recordSource struct {
	src   rand.Source64
	rec   *streamRecorder
	draws []uint64
}

func (s *recordSource) Int63() int64 {
	v := s.src.Int63()
	s.keep(uint64(v))
	return v
}

func (s *recordSource) Uint64() uint64 {
	v := s.src.Uint64()
	s.keep(v)
	return v
}

func (s *recordSource) keep(v uint64) {
	if !s.rec.filling {
		s.draws = append(s.draws, v)
	}
}

func (s *recordSource) Seed(seed int64) { s.src.Seed(seed) }

// streamReplayer serves a run's input generation from a recorded stream.
type streamReplayer struct {
	stream   *Stream
	nextSrc  int
	nextFill int
}

// source returns the replaying generator for the next Tape.Rand call.
// Creation order and seeds must match the recording run; a mismatch
// means the benchmark's input generation is configuration-dependent,
// which violates the PureInit contract the stream was gated on.
func (r *streamReplayer) source(seed int64) rand.Source {
	k := r.nextSrc
	if k >= len(r.stream.seeds) || r.stream.seeds[k] != seed {
		panic(fmt.Sprintf("mp: replayed generator %d (seed %d) does not match the recorded run; benchmark input generation is not a pure function of the workload seed", k, seed))
	}
	r.nextSrc++
	return &replaySource{draws: r.stream.draws[k]}
}

// fill serves one SetEach from the recorded value sequence, narrowing
// through the array's precision. The generators stay where they are: the
// recording kept none of the fill's draws.
func (r *streamReplayer) fill(a *Array) {
	if r.nextFill >= len(r.stream.fills) {
		panic("mp: replayed run performs more bulk initialisations than the recorded run; benchmark input generation is not a pure function of the workload seed")
	}
	vals := r.stream.fills[r.nextFill]
	r.nextFill++
	if len(vals) != len(a.data) {
		panic(fmt.Sprintf("mp: replayed bulk initialisation of %d elements, recorded %d; benchmark input generation is not a pure function of the workload seed", len(a.data), len(vals)))
	}
	p := a.prec
	if p == F64 {
		copy(a.data, vals)
	} else {
		for i, x := range vals {
			a.data[i] = p.Round(x)
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

package mp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// streamSites is the tape size of streamBody.
const streamSites = 4

// streamBody is a synthetic seed-pure Run body covering the shapes of
// input generation a recorded stream must reproduce: scalar draws
// before, between and after bulk fills, a second generator created after
// the first fill, and a fill that draws from both generators, through
// Float64, Float32, Int63n and Uint64. Fills read raw draws only, never
// a rounded tape value, so the body is seed-pure. newRand and fill stand
// in for Tape.Rand and Array.SetEach, so a test can tap the draws.
func streamBody(t *Tape, seed int64, newRand func(int64) *rand.Rand, fill func(*Array, func(int) float64)) []float64 {
	g := newRand(seed)
	x0 := g.Float64()
	x := t.Assign(2, x0, 1)
	n := float64(g.Int63n(7) + 1)
	a := t.NewArray(0, 40)
	fill(a, func(int) float64 { return g.Float64()*n - x0 })

	h := newRand(seed ^ 0x5eed)
	y0 := float64(g.Float32()) + float64(h.Uint64()>>11)/(1<<53)
	y := t.Assign(3, y0, 1, 2)
	b := t.NewArray(1, 24)
	fill(b, func(int) float64 { return float64(h.Float32()) - float64(g.Int63n(1000))/997 + y0 })

	z := t.Assign(2, x*float64(h.Int63n(50))+g.Float64()-y, 2, 2, 3)
	c := t.NewArray(1, 8)
	fill(c, func(int) float64 { return h.Float64() / 3 })

	w := float64(g.Uint64()>>12)/(1<<52) + float64(h.Float32())
	out := make([]float64, a.Len())
	for i := range out {
		out[i] = t.Assign(3, a.Get(i)*z+b.Get(i%b.Len())-c.Get(i%c.Len())*w, 3, 0, 1, 2)
	}
	return out
}

// tapSource is a live seeded source that logs the outputs drawn while
// no fill runs and counts the rest.
type tapSource struct {
	rand.Source64
	inFill  *bool
	outside []uint64
	inside  int
}

func (s *tapSource) Int63() int64 {
	v := s.Source64.Int63()
	s.log(uint64(v))
	return v
}

func (s *tapSource) Uint64() uint64 {
	v := s.Source64.Uint64()
	s.log(v)
	return v
}

func (s *tapSource) log(v uint64) {
	if *s.inFill {
		s.inside++
	} else {
		s.outside = append(s.outside, v)
	}
}

// TestStreamReplayMatchesLive records streamBody once under F64 and
// replays it under narrower formats and IR semantics: outputs, cost,
// profile and read set match a live run on a fresh tape bit for bit. It
// also checks, white-box, that the stream keeps each generator's draws
// made outside fills and none of the draws fills make.
func TestStreamReplayMatchesLive(t *testing.T) {
	const seed = 42
	run := func(tp *Tape) []float64 { return streamBody(tp, seed, tp.Rand, (*Array).SetEach) }

	rec := NewTape(streamSites)
	rec.Configure(nil, false)
	rec.StartRecording()
	run(rec)
	s := rec.FinishRecording()
	if s == nil {
		t.Fatal("recording produced no stream")
	}

	custom := MustCustom(8, 12)
	for name, c := range map[string]struct {
		cfg []Prec
		ir  bool
	}{
		"f32":          {[]Prec{F32, F32, F32, F32}, false},
		"bf16":         {[]Prec{BF16, BF16, BF16, BF16}, false},
		"custom(8,12)": {[]Prec{custom, custom, custom, custom}, false},
		"ir":           {[]Prec{F32, BF16, custom, F64}, true},
	} {
		live := NewTape(streamSites)
		live.SetComputeOnly(c.ir)
		for v, p := range c.cfg {
			live.SetPrec(VarID(v), p)
		}
		want := run(live)

		rep := NewTape(streamSites)
		rep.Configure(c.cfg, c.ir)
		rep.Replay(s)
		got := run(rep)

		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: replayed outputs %v, live %v", name, got, want)
		}
		if g, w := rep.Cost(), live.Cost(); g != w {
			t.Errorf("%s: replayed cost %+v, live %+v", name, g, w)
		}
		if g, w := rep.Profile(), live.Profile(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: replayed profile %+v, live %+v", name, g, w)
		}
		if g, w := rep.ReadSet(), live.ReadSet(); !slices.Equal(g, w) {
			t.Errorf("%s: replayed read set %v, live %v", name, g, w)
		}
	}

	var taps []*tapSource
	inFill := false
	streamBody(NewTape(streamSites), seed, func(seed int64) *rand.Rand {
		src := &tapSource{Source64: rand.NewSource(seed).(rand.Source64), inFill: &inFill}
		taps = append(taps, src)
		return rand.New(src)
	}, func(a *Array, f func(int) float64) {
		inFill = true
		a.SetEach(f)
		inFill = false
	})
	if want := []int64{seed, seed ^ 0x5eed}; !slices.Equal(s.seeds, want) || len(s.draws) != len(taps) {
		t.Fatalf("stream has generators %v with %d draw lists, want %v", s.seeds, len(s.draws), want)
	}
	if len(s.fills) != 3 {
		t.Errorf("stream has %d fills, want 3", len(s.fills))
	}
	for k, tap := range taps {
		if tap.inside == 0 {
			t.Fatalf("generator %d never drew inside a fill; the body no longer covers fill draws", k)
		}
		if !slices.Equal(s.draws[k], tap.outside) {
			t.Errorf("generator %d: recorded %d draws, want its %d draws made outside fills (it drew %d inside)",
				k, len(s.draws[k]), len(tap.outside), tap.inside)
		}
	}
}

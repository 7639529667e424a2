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

// replayConfigs are the configurations a recorded stream replays under
// in the tests: every site at one format, and mixed formats under IR
// semantics.
var replayConfigs = map[string]struct {
	cfg []Prec
	ir  bool
}{
	"f64":          {[]Prec{F64, F64, F64, F64}, false},
	"f32":          {[]Prec{F32, F32, F32, F32}, false},
	"bf16":         {[]Prec{BF16, BF16, BF16, BF16}, false},
	"custom(8,12)": {[]Prec{MustCustom(8, 12), MustCustom(8, 12), MustCustom(8, 12), MustCustom(8, 12)}, false},
	"ir":           {[]Prec{F32, BF16, MustCustom(8, 12), F64}, true},
}

// checkReplay replays s under every replayConfigs entry and checks that
// outputs, cost, profile and read set match a live run of the same body
// on a fresh tape bit for bit. label prefixes each failure.
func checkReplay(t *testing.T, label string, s *Stream, run func(*Tape) []float64) {
	t.Helper()
	for name, c := range replayConfigs {
		name = label + name
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
}

// TestStreamReplayMatchesLive records streamBody once under F64 and
// replays it under every replayConfigs entry: outputs, cost, profile and
// read set match a live run on a fresh tape bit for bit. It
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

	checkReplay(t, "", s, run)

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

// refillBody is a synthetic seed-pure Run body that refills its arrays
// the way the kernels' repetition loops do. It fills x three times from
// a generator re-created with one seed, then once more with the same
// draws except the last, and fills z with -0, +0 and two NaN payloads
// in turn, repeating its first fill last. The output reads every fill.
func refillBody(t *Tape, seed int64) []float64 {
	var out []float64
	g := t.Rand(seed)
	v := t.NewArray(0, 64)
	v.SetEach(func(int) float64 { return g.Float64() - 0.5 })
	x := t.NewArray(1, 64)
	for rep := 0; rep <= 3; rep++ {
		h := t.Rand(seed + 1)
		last := rep == 3
		x.SetEach(func(i int) float64 {
			y := h.Float64()
			if last && i == x.Len()-1 {
				y += 0.25
			}
			return y
		})
		sum := 0.0
		for i := 0; i < x.Len(); i++ {
			sum = t.Assign(2, sum+x.Get(i)*v.Get(i), 2, 1, 0)
		}
		out = append(out, sum)
	}
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	z := t.NewArray(3, 3)
	for _, vals := range [][]float64{{0, nan1, 1}, {negZero, nan1, 1}, {0, nan2, 1}, {0, nan1, 1}} {
		z.SetEach(func(i int) float64 { return vals[i] })
		for i := 0; i < z.Len(); i++ {
			out = append(out, t.Assign(2, 1/z.Get(i), 2, 3))
		}
	}
	return out
}

// TestStreamSharesEqualFills records refillBody under F64, where the
// array's own data are compared, and under BF16, where the pre-rounding
// values go through the recorder's scratch buffer. Each stream must keep
// one backing array per distinct fill, bit for bit: the three identical
// refills share one, the near-equal refill and each fill that differs
// only in a zero's sign or a NaN's payload get their own. Replay under
// every replayConfigs entry must match a live run.
func TestStreamSharesEqualFills(t *testing.T) {
	const seed = 7
	run := func(tp *Tape) []float64 { return refillBody(tp, seed) }
	// Fill k shares the backing array of fill want[k]: v, x three times,
	// the near-equal x, then z's four fills.
	want := []int{0, 1, 1, 1, 4, 5, 6, 7, 5}
	for _, cfg := range [][]Prec{nil, {BF16, BF16, BF16, BF16}} {
		rec := NewTape(streamSites)
		rec.Configure(cfg, false)
		rec.StartRecording()
		run(rec)
		s := rec.FinishRecording()
		label := "recorded under f64: "
		if cfg != nil {
			label = "recorded under bf16: "
		}
		got := make([]int, len(s.fills))
		for k, f := range s.fills {
			got[k] = slices.IndexFunc(s.fills, func(g []float64) bool { return &g[0] == &f[0] })
		}
		if !slices.Equal(got, want) {
			t.Errorf("%sfill k shares the backing array of fill %v[k], want %v", label, got, want)
		}
		checkReplay(t, label, s, run)
	}
}

package mp

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"
)

// readSetVars is the tape size of the read-tracking cases.
const readSetVars = 4

// readCases lists, per exported method of *Tape and *Array (plus the
// ReadInto/WriteFrom functions), a call and the sites it must mark read.
// Every case runs on a fresh tape with site 1 at single precision. The
// read set is what lets the run cache share one execution among
// configurations that differ only in unread sites, so a call that
// reveals a precision without marking it would make that sharing
// inexact; TestReadCasesCoverEveryMethod keeps this table complete.
var readCases = map[string]struct {
	call func(t *Tape)
	want []VarID
}{
	"Tape.AddBytes":        {func(t *Tape) { t.AddBytes(F32, 8) }, nil},
	"Tape.AddCasts":        {func(t *Tape) { t.AddCasts(2) }, nil},
	"Tape.AddFlops":        {func(t *Tape) { t.AddFlops(F32, 3) }, nil},
	"Tape.Assign":          {func(t *Tape) { t.Assign(0, 1.5, 1, 1, 3) }, []VarID{0, 1, 3}},
	"Tape.ComputeOnly":     {func(t *Tape) { t.ComputeOnly() }, nil},
	"Tape.Configure":       {func(t *Tape) { t.Configure([]Prec{BF16, F64, F32}, true) }, nil},
	"Tape.Cost":            {func(t *Tape) { t.Cost() }, nil},
	"Tape.FinishRecording": {func(t *Tape) { t.StartRecording(); t.Rand(1).Int63(); t.FinishRecording() }, nil},
	"Tape.Freeze":          {func(t *Tape) { t.Freeze() }, nil},
	"Tape.NewArray":        {func(t *Tape) { t.NewArray(2, 4) }, []VarID{2}},
	"Tape.NumVars":         {func(t *Tape) { t.NumVars() }, nil},
	"Tape.Prec":            {func(t *Tape) { t.Prec(3) }, []VarID{3}},
	"Tape.Profile":         {func(t *Tape) { t.Profile() }, nil},
	"Tape.Rand":            {func(t *Tape) { t.Rand(1).Float64() }, nil},
	"Tape.ReadSet":         {func(t *Tape) { t.ReadSet() }, nil},
	"Tape.Replay": {func(t *Tape) {
		src := NewTape(readSetVars)
		src.StartRecording()
		src.Rand(1).Int63()
		t.Replay(src.FinishRecording())
		t.Rand(1).Int63()
	}, nil},
	"Tape.Reset": {func(t *Tape) {
		t.Freeze()
		t.Assign(0, 1, 1, 1)
		t.NewArray(2, 4).Set(0, 1)
		t.Reset()
	}, nil},
	"Tape.Scale":          {func(t *Tape) { t.Scale() }, nil},
	"Tape.SetComputeOnly": {func(t *Tape) { t.SetComputeOnly(true) }, nil},
	"Tape.SetPrec":        {func(t *Tape) { t.SetPrec(2, BF16) }, nil},
	"Tape.SetScale":       {func(t *Tape) { t.SetScale(3) }, nil},
	"Tape.StartRecording": {func(t *Tape) { t.StartRecording() }, nil},
	"Tape.String":         {func(t *Tape) { _ = t.String() }, []VarID{0, 1, 2, 3}},
	"Tape.Value":          {func(t *Tape) { t.Value(2, 0.1) }, []VarID{2}},

	// An Array caches its variable's precision at NewArray, which marks
	// the variable; no accessor may reach any other site.
	"Array.Fill":         {func(t *Tape) { t.NewArray(1, 4).Fill(0.1) }, []VarID{1}},
	"Array.Get":          {func(t *Tape) { t.NewArray(1, 4).Get(2) }, []VarID{1}},
	"Array.GetN":         {func(t *Tape) { t.NewArray(1, 4).GetN(1, make([]float64, 2)) }, []VarID{1}},
	"Array.Len":          {func(t *Tape) { t.NewArray(1, 4).Len() }, []VarID{1}},
	"Array.Prec":         {func(t *Tape) { t.NewArray(1, 4).Prec() }, []VarID{1}},
	"Array.Set":          {func(t *Tape) { t.NewArray(1, 4).Set(0, 0.1) }, []VarID{1}},
	"Array.SetEach":      {func(t *Tape) { t.NewArray(1, 4).SetEach(func(i int) float64 { return float64(i) / 3 }) }, []VarID{1}},
	"Array.SetN":         {func(t *Tape) { t.NewArray(1, 4).SetN(1, []float64{0.1, 0.2}) }, []VarID{1}},
	"Array.Snapshot":     {func(t *Tape) { t.NewArray(1, 4).Snapshot() }, []VarID{1}},
	"Array.SnapshotInto": {func(t *Tape) { t.NewArray(1, 4).SnapshotInto(make([]float64, 2), 1) }, []VarID{1}},
	"Array.Var":          {func(t *Tape) { t.NewArray(1, 4).Var() }, []VarID{1}},

	"ReadInto": {func(t *Tape) {
		var buf bytes.Buffer
		if err := WriteValues(&buf, F64, []float64{0.1, 0.2}); err != nil {
			panic(err)
		}
		if err := ReadInto(&buf, F64, t.NewArray(1, 2)); err != nil {
			panic(err)
		}
	}, []VarID{1}},
	"WriteFrom": {func(t *Tape) {
		if err := WriteFrom(io.Discard, F64, t.NewArray(3, 2)); err != nil {
			panic(err)
		}
	}, []VarID{3}},
}

// readSites lists the marked sites of a read set.
func readSites(reads []bool) []VarID {
	var out []VarID
	for v, r := range reads {
		if r {
			out = append(out, VarID(v))
		}
	}
	return out
}

// TestReadSetMarks checks that each observing call marks exactly its
// sites and every other call marks nothing.
func TestReadSetMarks(t *testing.T) {
	for name, c := range readCases {
		tape := NewTape(readSetVars)
		tape.SetPrec(1, F32)
		if got := tape.ReadSet(); len(got) != readSetVars || slices.Contains(got, true) {
			t.Fatalf("%s: a configured tape starts with read set %v", name, got)
		}
		c.call(tape)
		if got := readSites(tape.ReadSet()); !slices.Equal(got, c.want) {
			t.Errorf("%s marked sites %v, want %v", name, got, c.want)
		}
	}
}

// TestReadCasesCoverEveryMethod fails when an exported method of *Tape
// or *Array has no readCases entry, so a future accessor cannot reveal a
// precision without a check that it marks it.
func TestReadCasesCoverEveryMethod(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(&Tape{}), reflect.TypeOf(&Array{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Elem().Name() + "." + typ.Method(i).Name
			if _, ok := readCases[name]; !ok {
				t.Errorf("%s has no read-tracking case in readCases", name)
			}
		}
	}
}

// TestReadSetRecycledRerun checks that Reset clears the read set and
// that a rerun on a reset tape, whose allocations reuse the previous
// run's arrays, marks exactly what a fresh tape marks.
func TestReadSetRecycledRerun(t *testing.T) {
	run := func(t *Tape) {
		a := t.NewArray(0, 8)
		a.SetEach(func(i int) float64 { return float64(i) / 7 })
		sum := 0.0
		for i := 0; i < a.Len(); i++ {
			sum = t.Assign(2, sum+a.Get(i), 1, 0)
		}
		t.NewArray(3, 2).Set(0, sum)
	}
	fresh := NewTape(readSetVars)
	fresh.SetPrec(0, F32)
	run(fresh)
	want := fresh.ReadSet()

	frozen := NewTape(readSetVars)
	frozen.SetPrec(0, F32)
	frozen.Freeze()
	for pass := 0; pass < 3; pass++ {
		run(frozen)
		if got := frozen.ReadSet(); !slices.Equal(got, want) {
			t.Fatalf("pass %d: read set %v, fresh tape %v", pass, got, want)
		}
		frozen.Reset()
		if got := frozen.ReadSet(); slices.Contains(got, true) {
			t.Fatalf("pass %d: Reset left read set %v", pass, got)
		}
	}
}

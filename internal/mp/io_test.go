package mp

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// ioValues returns n distinct values spanning several binades, so every
// stored format rounds some of them.
func ioValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = (float64(i) + 1.0/3) * math.Pow(2, float64(i%9-4))
	}
	return vals
}

// TestReadIntoMatchesSetN checks that decoding straight into the array is
// SetN's store exactly: for every stored format and destination width, and
// a file spanning several staging chunks, ReadInto leaves the same bits
// and the same cost as reading the values out and storing them with SetN.
func TestReadIntoMatchesSetN(t *testing.T) {
	custom, err := Custom(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	vals := ioValues(3*stageBytes/2 + 7)
	for _, stored := range []Prec{F64, F32, F16, BF16, custom} {
		for _, to := range []Prec{F64, F32, F16, BF16, custom} {
			var file bytes.Buffer
			if err := WriteValues(&file, stored, vals); err != nil {
				t.Fatal(err)
			}
			raw := bytes.Clone(file.Bytes())

			direct := NewTape(1)
			direct.SetPrec(0, to)
			got := direct.NewArray(0, len(vals))
			if err := ReadInto(&file, stored, got); err != nil {
				t.Fatalf("%v→%v: %v", stored, to, err)
			}

			staged := NewTape(1)
			staged.SetPrec(0, to)
			want := staged.NewArray(0, len(vals))
			back, err := ReadValues(bytes.NewReader(raw), stored, len(vals))
			if err != nil {
				t.Fatal(err)
			}
			if stored != to {
				staged.AddCastsBetween(stored, to, uint64(len(vals)))
			}
			want.SetN(0, back)

			for i := range vals {
				if g, w := got.data[i], want.data[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v→%v: [%d] = %g, want %g", stored, to, i, g, w)
				}
			}
			if direct.Cost() != staged.Cost() {
				t.Errorf("%v→%v: cost %+v, want %+v", stored, to, direct.Cost(), staged.Cost())
			}
		}
	}
}

// TestReadShortStreamErrors checks the errors a short file reports: io.EOF
// for an empty stream, io.ErrUnexpectedEOF for one that ends early -
// inside the first staging chunk or exactly at a chunk boundary.
func TestReadShortStreamErrors(t *testing.T) {
	perChunk := stageBytes / 8
	for _, tc := range []struct {
		name   string
		stored int
		want   error
	}{
		{"empty", 0, io.EOF},
		{"inside first chunk", 3, io.ErrUnexpectedEOF},
		{"at chunk boundary", perChunk, io.ErrUnexpectedEOF},
		{"inside later chunk", perChunk + 5, io.ErrUnexpectedEOF},
	} {
		var file bytes.Buffer
		if err := WriteValues(&file, F64, ioValues(tc.stored)); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadValues(&file, F64, 2*perChunk); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadValues error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadIntoFailureChargesNothing checks that a ReadInto that fails -
// here after a full staging chunk arrived - leaves the tape's cost as it
// was: no cast and no traffic for a load that did not happen.
func TestReadIntoFailureChargesNothing(t *testing.T) {
	var file bytes.Buffer
	if err := WriteValues(&file, F64, ioValues(stageBytes/8+1)); err != nil {
		t.Fatal(err)
	}
	tape := NewTape(1)
	tape.SetPrec(0, F32)
	dst := tape.NewArray(0, stageBytes/4)
	before := tape.Cost()
	if err := ReadInto(&file, F64, dst); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadInto error %v, want io.ErrUnexpectedEOF", err)
	}
	if after := tape.Cost(); after != before {
		t.Errorf("failed ReadInto charged %+v, want %+v", after, before)
	}
}

// growWriter records how WriteValues drives a writer that can grow.
type growWriter struct {
	grown    []int // Grow arguments, in call order
	early    bool  // a Write arrived before any Grow
	maxWrite int
}

func (w *growWriter) Grow(n int) { w.grown = append(w.grown, n) }

func (w *growWriter) Write(p []byte) (int, error) {
	w.early = w.early || len(w.grown) == 0
	w.maxWrite = max(w.maxWrite, len(p))
	return len(p), nil
}

// TestFileConversionAllocatesNoFileCopy checks the point of the staging
// buffer: converting a file in either direction allocates a small fixed
// amount, never a file-sized byte copy or a decoded copy, and a growable
// writer is grown once, by the file's size, before the first chunk lands.
// A simulated file round trip through a bytes.Buffer therefore allocates
// one file's worth of memory: the buffer's storage.
func TestFileConversionAllocatesNoFileCopy(t *testing.T) {
	vals := ioValues(9216)
	fileBytes := len(vals) * 8
	var file bytes.Buffer
	if err := WriteValues(&file, F64, vals); err != nil {
		t.Fatal(err)
	}
	raw := file.Bytes()
	tape := NewTape(1)
	tape.SetPrec(0, F32)
	dst := tape.NewArray(0, len(vals))
	r := bytes.NewReader(raw)

	allocated := func(f func()) uint64 {
		f() // warm up anything lazily allocated
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	write := allocated(func() {
		if err := WriteValues(io.Discard, F64, vals); err != nil {
			t.Fatal(err)
		}
	})
	read := allocated(func() {
		r.Reset(raw)
		if err := ReadInto(r, F64, dst); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(fileBytes / 4); write > limit || read > limit {
		t.Errorf("converting a %d-byte file allocated %d bytes to write and %d to read, want at most %d each",
			fileBytes, write, read, limit)
	}

	var w growWriter
	if err := WriteValues(&w, F64, vals); err != nil {
		t.Fatal(err)
	}
	if len(w.grown) != 1 || w.grown[0] != fileBytes || w.early || w.maxWrite > stageBytes {
		t.Errorf("Grow calls %v (write before growing: %v), largest write %d: want one Grow(%d) before writes of at most %d bytes",
			w.grown, w.early, w.maxWrite, fileBytes, stageBytes)
	}
}

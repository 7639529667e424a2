package mp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file reproduces the paper's mp_fread and mp_fwrite: benchmark input
// files are written once at a declared precision (the "initial type" of
// Listing 3, typically DOUBLE), and the runtime converts between the stored
// width and whatever width the active configuration gives the destination
// array. A static source transformation cannot retype a binary file on
// disk, so this conversion layer is what makes file-reading benchmarks
// tunable at all.
//
// Every conversion goes through one fixed staging buffer of stageBytes per
// call: values are encoded into it and written a chunk at a time, or read
// into it a chunk at a time and decoded straight to their destination. No
// file-sized byte buffer is ever allocated, so a benchmark's simulated
// file round trip allocates only the file itself (the writer's storage),
// plus the decoded values when it reads them back with ReadValues.

// byteOrder fixes the on-disk layout; the paper's x86 testbed is
// little-endian.
var byteOrder = binary.LittleEndian

// stageBytes is the size of the staging buffer; it is a multiple of every
// stride, so a chunk always holds whole values.
const stageBytes = 4096

// ioStride returns the on-disk bytes per value for stored precision p.
// The interchange formats serialize at their container width; custom
// formats have no interchange encoding, so their values (a subset of
// float64) are stored as rounded float64 payloads.
func ioStride(p Prec) int {
	if p.IsCustom() {
		return 8
	}
	return int(p.Size())
}

// encodeValue writes v narrowed to stored precision p at the start of b.
func encodeValue(b []byte, p Prec, v float64) {
	switch p {
	case F32:
		byteOrder.PutUint32(b, math.Float32bits(float32(v)))
	case F16:
		byteOrder.PutUint16(b, halfBits(F16.Round(v)))
	case BF16:
		byteOrder.PutUint16(b, bfloatBits(BF16.Round(v)))
	default:
		byteOrder.PutUint64(b, math.Float64bits(p.Round(v)))
	}
}

// decodeValue reads the value stored at precision p at the start of b,
// widened to float64.
func decodeValue(b []byte, p Prec) float64 {
	switch p {
	case F32:
		return float64(math.Float32frombits(byteOrder.Uint32(b)))
	case F16:
		return halfFromBits(byteOrder.Uint16(b))
	case BF16:
		return bfloatFromBits(byteOrder.Uint16(b))
	default:
		return math.Float64frombits(byteOrder.Uint64(b))
	}
}

// WriteValues writes vals to w at the stored precision p, narrowing each
// value as needed. It is the serialisation half of mp_fwrite. A writer
// with a Grow(int) method (a bytes.Buffer) is first grown by the file's
// size, so the staged chunks land without reallocating it.
func WriteValues(w io.Writer, p Prec, vals []float64) error {
	stride := ioStride(p)
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(vals) * stride)
	}
	var stage [stageBytes]byte
	for len(vals) > 0 {
		k := min(len(vals), stageBytes/stride)
		for i, v := range vals[:k] {
			encodeValue(stage[i*stride:], p, v)
		}
		if _, err := w.Write(stage[:k*stride]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// ReadValues reads n values stored at precision p from r, widening each to
// float64. It is the deserialisation half of mp_fread. A stream that ends
// early fails with io.ErrUnexpectedEOF, or io.EOF when it holds no bytes
// at all.
func ReadValues(r io.Reader, p Prec, n int) ([]float64, error) {
	out := make([]float64, n)
	if err := decodeInto(r, p, out, F64); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeInto reads len(dst) values stored at precision stored from r
// through the staging buffer and decodes each straight into dst, rounded
// to precision to (F64 keeps the widened value as is, as Array.SetN
// does). On error dst holds whatever chunks arrived before it.
func decodeInto(r io.Reader, stored Prec, dst []float64, to Prec) error {
	stride := ioStride(stored)
	var stage [stageBytes]byte
	for done := 0; done < len(dst); {
		chunk := dst[done:min(len(dst), done+stageBytes/stride)]
		if _, err := io.ReadFull(r, stage[:len(chunk)*stride]); err != nil {
			if err == io.EOF && done > 0 {
				// Earlier chunks arrived, so the stream ended mid-file.
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("mp: reading %d %s values: %w", len(dst), stored, err)
		}
		for i := range chunk {
			x := decodeValue(stage[i*stride:], stored)
			if to != F64 {
				x = to.Round(x)
			}
			chunk[i] = x
		}
		done += len(chunk)
	}
	return nil
}

// ReadInto is mp_fread: it fills dst from r, where the stream stores
// dst.Len() values at precision stored. Each value is converted from the
// stored width to the width the configuration assigns to dst's variable,
// charging one cast per element when the widths differ (the conversion work
// a real mixed binary performs on load). Values are decoded straight into
// the array, with SetN's rounding and traffic charge. A stream that ends
// early fails as in ReadValues; a failed ReadInto charges nothing and
// leaves the array's contents unspecified.
func ReadInto(r io.Reader, stored Prec, dst *Array) error {
	if err := decodeInto(r, stored, dst.data, dst.prec); err != nil {
		return err
	}
	if stored != dst.Prec() {
		dst.tape.AddCasts(uint64(dst.Len()))
	}
	dst.charge(uint64(dst.Len()))
	return nil
}

// WriteFrom is mp_fwrite: it writes dst's contents to w at the declared
// stored precision, charging conversion work when the widths differ. Output
// files therefore always have the layout the original double-precision
// program produced, which is what lets the verification library compare
// approximate and exact runs byte-compatibly.
func WriteFrom(w io.Writer, stored Prec, src *Array) error {
	if stored != src.Prec() {
		src.tape.AddCasts(uint64(src.Len()))
	}
	src.charge(uint64(src.Len()))
	return WriteValues(w, stored, src.data)
}

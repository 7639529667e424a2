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

// byteOrder fixes the on-disk layout; the paper's x86 testbed is
// little-endian.
var byteOrder = binary.LittleEndian

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

// WriteValues writes vals to w at the stored precision p, narrowing each
// value as needed. It is the serialisation half of mp_fwrite.
func WriteValues(w io.Writer, p Prec, vals []float64) error {
	buf := make([]byte, len(vals)*ioStride(p))
	for i, v := range vals {
		switch p {
		case F32:
			byteOrder.PutUint32(buf[i*4:], math.Float32bits(float32(v)))
		case F16:
			byteOrder.PutUint16(buf[i*2:], halfBits(F16.Round(v)))
		case BF16:
			byteOrder.PutUint16(buf[i*2:], bfloatBits(BF16.Round(v)))
		default:
			byteOrder.PutUint64(buf[i*8:], math.Float64bits(p.Round(v)))
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadValues reads n values stored at precision p from r, widening each to
// float64. It is the deserialisation half of mp_fread.
func ReadValues(r io.Reader, p Prec, n int) ([]float64, error) {
	buf := make([]byte, n*ioStride(p))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("mp: reading %d %s values: %w", n, p, err)
	}
	out := make([]float64, n)
	for i := range out {
		switch p {
		case F32:
			out[i] = float64(math.Float32frombits(byteOrder.Uint32(buf[i*4:])))
		case F16:
			out[i] = halfFromBits(byteOrder.Uint16(buf[i*2:]))
		case BF16:
			out[i] = bfloatFromBits(byteOrder.Uint16(buf[i*2:]))
		default:
			out[i] = math.Float64frombits(byteOrder.Uint64(buf[i*8:]))
		}
	}
	return out, nil
}

// ReadInto is mp_fread: it fills dst from r, where the stream stores
// dst.Len() values at precision stored. Each value is converted from the
// stored width to the width the configuration assigns to dst's variable,
// charging one cast per element when the widths differ (the conversion work
// a real mixed binary performs on load).
func ReadInto(r io.Reader, stored Prec, dst *Array) error {
	vals, err := ReadValues(r, stored, dst.Len())
	if err != nil {
		return err
	}
	if stored != dst.Prec() {
		dst.tape.AddCastsBetween(stored, dst.Prec(), uint64(dst.Len()))
	}
	dst.SetN(0, vals)
	return nil
}

// WriteFrom is mp_fwrite: it writes dst's contents to w at the declared
// stored precision, charging conversion work when the widths differ. Output
// files therefore always have the layout the original double-precision
// program produced, which is what lets the verification library compare
// approximate and exact runs byte-compatibly.
func WriteFrom(w io.Writer, stored Prec, src *Array) error {
	if stored != src.Prec() {
		src.tape.AddCastsBetween(src.Prec(), stored, uint64(src.Len()))
	}
	src.charge(uint64(src.Len()))
	return WriteValues(w, stored, src.data)
}

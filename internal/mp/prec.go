// Package mp implements the HPC-MixPBench mixed-precision runtime.
//
// The paper's runtime library wraps memory allocation and file IO so that a
// program whose variables have been demoted from double to single precision
// still allocates, reads, and writes data of the right width (the mp_malloc,
// mp_fread, and mp_fwrite calls of Listing 3). This package is the Go
// equivalent, with one addition made necessary by the reproduction strategy:
// instead of recompiling a program per precision configuration, benchmarks
// execute once against a Tape that carries the configuration. Every
// assignment to a variable that the configuration demotes is rounded
// through the narrow format, which is exactly the numeric behaviour of a
// source-level type demotion (arithmetic evaluates in the wide type, the
// store narrows).
//
// The Tape also meters the work a real mixed-precision binary would perform
// - floating-point operations per precision, memory traffic per element
// width, and casts introduced at precision boundaries - so that the
// perfmodel package can reconstruct execution time for the machine the paper
// evaluated on.
package mp

import "fmt"

// Prec identifies a floating-point format. The paper's study restricts
// itself to the two levels supported by Typeforge's refactoring (IEEE-754
// binary64 and binary32); the runtime generalizes the axis to a ladder of
// formats (see Ladder): binary16, bfloat16, and parameterized-mantissa
// custom formats following "Floating-point autotuning with customized
// precisions" (PAPERS.md).
//
// The four named formats are small enum values; a custom format encodes
// its exponent and mantissa widths directly in the value (see Custom), so
// a Prec is self-describing with no registry - two processes agree on the
// meaning of every value, which the content-addressed run cache and the
// durable result store rely on.
type Prec uint16

const (
	// F64 is IEEE-754 double precision, the precision every benchmark
	// starts from.
	F64 Prec = iota
	// F32 is IEEE-754 single precision, the demotion target of the
	// paper's study.
	F32
	// F16 is IEEE-754 half precision (binary16), the extension level the
	// paper motivates for accelerators; the paper-table regenerations
	// never assign it.
	F16
	// BF16 is bfloat16: the truncated-significand single-precision format
	// of ML accelerators (8 exponent bits, 7 mantissa bits). Narrower
	// than F16 in precision, wider in range.
	BF16
)

// customFlag marks a Prec value as a parameterized custom format; the
// exponent width lives in bits 8-11 and the mantissa width in bits 0-7.
const customFlag Prec = 0x1000

// Custom returns the parameterized-mantissa format with e exponent bits
// (2..11) and m mantissa bits (1..52) - the truncated-precision model of
// CRAFT-style customized-precision autotuning. The format's values are a
// subset of float64, rounding is round-to-nearest-even at m+1 significant
// bits with IEEE overflow and subnormal handling, and storage is charged
// at the smallest container width (2, 4, or 8 bytes) that fits 1+e+m
// bits.
func Custom(e, m int) (Prec, error) {
	if e < 2 || e > 11 {
		return 0, fmt.Errorf("mp: custom format exponent width %d out of range [2,11]", e)
	}
	if m < 1 || m > 52 {
		return 0, fmt.Errorf("mp: custom format mantissa width %d out of range [1,52]", m)
	}
	return customFlag | Prec(e)<<8 | Prec(m), nil
}

// MustCustom is Custom for statically known widths; it panics on a bad
// width.
func MustCustom(e, m int) Prec {
	p, err := Custom(e, m)
	if err != nil {
		panic(err)
	}
	return p
}

// IsCustom reports whether p is a parameterized custom format.
func (p Prec) IsCustom() bool { return p&customFlag != 0 }

// ExpBits returns the format's exponent field width in bits.
func (p Prec) ExpBits() int {
	switch p {
	case F64:
		return 11
	case F32, BF16:
		return 8
	case F16:
		return 5
	}
	return int(p>>8) & 0xF
}

// MantBits returns the format's mantissa (fraction) field width in bits.
func (p Prec) MantBits() int {
	switch p {
	case F64:
		return 52
	case F32:
		return 23
	case F16:
		return 10
	case BF16:
		return 7
	}
	return int(p & 0xFF)
}

// Size returns the storage width of one value of this format in bytes:
// the format's container. Custom formats occupy the smallest power-of-two
// container that fits their 1+e+m bits, the truncated-mantissa model
// (arithmetic and storage run at container width, precision is narrowed).
func (p Prec) Size() uint64 {
	switch p {
	case F32:
		return 4
	case F16, BF16:
		return 2
	case F64:
		return 8
	}
	bits := 1 + p.ExpBits() + p.MantBits()
	switch {
	case bits <= 16:
		return 2
	case bits <= 32:
		return 4
	default:
		return 8
	}
}

// wclass maps the format onto its width class - the index of the cost
// counters (Flops64/32/16, Bytes64/32/16) and perf-model rates it is
// metered under: 0 for 8-byte, 1 for 4-byte, 2 for 2-byte containers.
// Custom formats charge at their container class (a truncated-mantissa
// format executes on container-width hardware).
func (p Prec) wclass() int {
	switch p.Size() {
	case 4:
		return 1
	case 2:
		return 2
	default:
		return 0
	}
}

// rank orders formats by width: mantissa bits (the precision a value
// keeps), with exponent bits (at most 11, so 4 bits) breaking ties. For
// the built-in formats the order is F64 > F32 > F16 > BF16; formats of
// equal widths rank equal.
func (p Prec) rank() uint16 { return uint16(p.MantBits()<<4 | p.ExpBits()) }

// widerPrec reports whether a is strictly wider than b. Expression
// precision under Assign follows this order: the arithmetic runs at the
// widest operand's format.
func widerPrec(a, b Prec) bool { return a.rank() > b.rank() }

// Round narrows x to the format p. For F64 this is the identity; for the
// narrow formats the value is rounded to nearest-even at the format's
// precision, including overflow to infinity and subnormal handling.
//
// F64 (the original program and every non-demoted variable) and F32 (the
// paper's demotion target) resolve inline at every call site the compiler
// inlines Round into; every other format goes through roundBinary, the
// one bit-level rounder.
func (p Prec) Round(x float64) float64 {
	switch p {
	case F64:
		return x
	case F32:
		return float64(float32(x))
	}
	return p.roundNarrow(x)
}

// roundNarrow is Round for every format but F64, out of line. Array.Set
// calls it behind its own F64 test: Set with Round inlined exceeds the
// compiler's inlining budget, and a call per store costs more than the
// F32 conversion it would save.
func (p Prec) roundNarrow(x float64) float64 {
	if p == F32 {
		return float64(float32(x))
	}
	return roundBinary(x, p.ExpBits(), p.MantBits())
}

// String implements fmt.Stringer using the paper's names for the levels.
func (p Prec) String() string {
	switch p {
	case F64:
		return "double"
	case F32:
		return "single"
	case F16:
		return "half"
	case BF16:
		return "bfloat16"
	}
	if p.IsCustom() {
		return fmt.Sprintf("custom(%d,%d)", p.ExpBits(), p.MantBits())
	}
	return fmt.Sprintf("Prec(%d)", uint16(p))
}

// Name returns the format's short spelling, the one ladder clauses and
// -precisions flags use: f64, f32, f16, bf16, or custom(e,m).
func (p Prec) Name() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case F16:
		return "f16"
	case BF16:
		return "bf16"
	}
	if p.IsCustom() {
		return fmt.Sprintf("custom(%d,%d)", p.ExpBits(), p.MantBits())
	}
	return fmt.Sprintf("Prec(%d)", uint16(p))
}

// VarID names one tunable program location (a variable, parameter, or
// pointer in the source-level view). IDs are dense indices assigned by a
// benchmark's variable declaration order, so a precision configuration is a
// simple slice indexed by VarID.
type VarID int

package mp

// Cost meters the machine work of one benchmark execution, split by
// precision so the performance model can price double and single precision
// differently. All counters are exact tallies, not samples.
//
// The split matters because the two mechanisms the paper credits for
// mixed-precision speedups are (a) higher single-precision arithmetic
// throughput (wider vectors) and (b) halved memory footprint and traffic,
// which can move an array working set into a cache level it previously
// missed (the LavaMD effect). Casts are counted separately because a
// configuration that demotes only part of a dependence chain pays
// conversion instructions at every precision boundary, which is how a
// "smaller" configuration can end up slower than the original program.
type Cost struct {
	// Flops64, Flops32, and Flops16 count floating-point operations
	// retired at each precision.
	Flops64 uint64
	Flops32 uint64
	Flops16 uint64
	// Casts counts conversions between precisions introduced by the
	// configuration (format moves at assignment boundaries and on file
	// input and output), whatever formats they move between.
	Casts uint64
	// Bytes64, Bytes32, and Bytes16 count bytes of array traffic at each
	// element width (loads plus stores). Scalar variables live in
	// registers and do not contribute.
	Bytes64 uint64
	Bytes32 uint64
	Bytes16 uint64
	// Footprint64, Footprint32, and Footprint16 count bytes of array
	// storage allocated at each width; their sum is the resident working
	// set used to pick the cache level the traffic is served from.
	Footprint64 uint64
	Footprint32 uint64
	Footprint16 uint64
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.Flops64 += o.Flops64
	c.Flops32 += o.Flops32
	c.Flops16 += o.Flops16
	c.Casts += o.Casts
	c.Bytes64 += o.Bytes64
	c.Bytes32 += o.Bytes32
	c.Bytes16 += o.Bytes16
	c.Footprint64 += o.Footprint64
	c.Footprint32 += o.Footprint32
	c.Footprint16 += o.Footprint16
}

// Flops returns the total floating-point operation count at all precisions.
func (c Cost) Flops() uint64 { return c.Flops64 + c.Flops32 + c.Flops16 }

// Bytes returns the total array traffic in bytes at all element widths.
func (c Cost) Bytes() uint64 { return c.Bytes64 + c.Bytes32 + c.Bytes16 }

// Footprint returns the total resident array storage in bytes.
func (c Cost) Footprint() uint64 { return c.Footprint64 + c.Footprint32 + c.Footprint16 }

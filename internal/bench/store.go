package bench

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mp"
	"repro/internal/perfmodel"
	"repro/internal/runcache"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// This file adapts the durable result store (internal/store) to the run
// cache as a runcache.Tier: records are addressed by the canonical
// binary form of the purity key and hold a versioned binary encoding of
// Result. Decoding is strict - any trailing or missing bytes fail - so a
// codec change can never be misread as data; it surfaces as a
// fingerprint change instead (see StoreFingerprint).

// resultCodecVersion is bumped on any change to the Result encoding.
// It is mixed into the store fingerprint, so a store written under an
// older encoding is refused at Open rather than misdecoded.
//
// Version 2: Cost gained the CastPairs width-class matrix (9 extra
// counter words) and Result gained the modelled Energy.
const resultCodecVersion = 2

// nilSlice marks a nil slice in the encoding, distinguishing it from an
// empty one so decoded results are deep-equal to the originals.
const nilSlice = 0xffffffff

// EncodeResult appends the versioned binary encoding of r to dst. The
// encoding is little-endian and bit-exact: float64s are stored as raw
// bits, so NaNs and infinities round-trip.
//
//mixplint:key Result -- a Result field missing from the codec is silently dropped by the durable tier and replays wrong; bump resultCodecVersion when extending
func EncodeResult(dst []byte, r Result) []byte {
	dst = append(dst, resultCodecVersion)
	dst = appendFloatSlice(dst, r.Output.Values)
	for _, u := range costWords(r.Cost) {
		dst = binary.LittleEndian.AppendUint64(dst, u)
	}
	if r.Profile == nil {
		dst = binary.LittleEndian.AppendUint32(dst, nilSlice)
	} else {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Profile)))
		for _, p := range r.Profile {
			dst = binary.LittleEndian.AppendUint64(dst, p.Bytes)
			dst = binary.LittleEndian.AppendUint64(dst, p.Flops)
			dst = binary.LittleEndian.AppendUint64(dst, p.Casts)
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.ModelTime))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Energy))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Measured.Mean))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Measured.Runs))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Measured.Total))
	return dst
}

// DecodeResult decodes one EncodeResult payload. Every byte must be
// consumed; a version or length mismatch is an error, never a guess.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	d := decoder{b: b}
	if v := d.u8(); v != resultCodecVersion {
		return r, fmt.Errorf("bench: result codec version %d, this build reads %d", v, resultCodecVersion)
	}
	r.Output.Values = d.floatSlice()
	var words [19]uint64
	for i := range words {
		words[i] = d.u64()
	}
	r.Cost = costFromWords(words)
	if n := d.u32(); n != nilSlice {
		if d.err == nil && int(n) > d.remaining()/24 {
			return r, fmt.Errorf("bench: profile length %d exceeds payload", n)
		}
		prof := make([]mp.VarProfile, n)
		for i := range prof {
			prof[i] = mp.VarProfile{Bytes: d.u64(), Flops: d.u64(), Casts: d.u64()}
		}
		r.Profile = prof
	}
	r.ModelTime = math.Float64frombits(d.u64())
	r.Energy = math.Float64frombits(d.u64())
	r.Measured = perfmodel.Measurement{
		Mean:  math.Float64frombits(d.u64()),
		Runs:  int(d.u64()),
		Total: math.Float64frombits(d.u64()),
	}
	if d.err != nil {
		return Result{}, d.err
	}
	if d.remaining() != 0 {
		return Result{}, fmt.Errorf("bench: %d trailing bytes after result", d.remaining())
	}
	return r, nil
}

// costWords flattens a Cost into its counter words, in field order: the
// ten historical counters followed by the CastPairs matrix in row-major
// order.
func costWords(c mp.Cost) [19]uint64 {
	w := [19]uint64{
		c.Flops64, c.Flops32, c.Flops16, c.Casts,
		c.Bytes64, c.Bytes32, c.Bytes16,
		c.Footprint64, c.Footprint32, c.Footprint16,
	}
	k := 10
	for i := range c.CastPairs {
		for j := range c.CastPairs[i] {
			w[k] = c.CastPairs[i][j]
			k++
		}
	}
	return w
}

// costFromWords is the inverse of costWords.
func costFromWords(w [19]uint64) mp.Cost {
	c := mp.Cost{
		Flops64: w[0], Flops32: w[1], Flops16: w[2], Casts: w[3],
		Bytes64: w[4], Bytes32: w[5], Bytes16: w[6],
		Footprint64: w[7], Footprint32: w[8], Footprint16: w[9],
	}
	k := 10
	for i := range c.CastPairs {
		for j := range c.CastPairs[i] {
			c.CastPairs[i][j] = w[k]
			k++
		}
	}
	return c
}

// appendFloatSlice appends a nil-aware float64 slice.
func appendFloatSlice(dst []byte, vals []float64) []byte {
	if vals == nil {
		return binary.LittleEndian.AppendUint32(dst, nilSlice)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decoder is a tiny bounds-checked little-endian reader. After the first
// short read it returns zeros and keeps the error.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) remaining() int { return len(d.b) }

func (d *decoder) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		if d.err == nil {
			d.err = fmt.Errorf("bench: result payload truncated (%d bytes short)", n-len(d.b))
		}
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) floatSlice() []float64 {
	n := d.u32()
	if n == nilSlice || d.err != nil {
		return nil
	}
	if int(n) > d.remaining()/8 {
		d.err = fmt.Errorf("bench: value slice length %d exceeds payload", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(d.u64())
	}
	return out
}

// StoreFingerprint derives the fingerprint a result store must be
// opened with: the runner's machine-model fingerprint mixed with the
// codec version. Either a model change or an encoding change makes the
// stored records unusable, and both flip this value, so store.Open's
// header check refuses them together.
func StoreFingerprint(model uint64) uint64 {
	h := model
	h = (h ^ uint64(resultCodecVersion)) * runcache.FNVPrime64
	h = (h ^ 0x73746f7265) * runcache.FNVPrime64 // "store", separating this derivation from raw model fingerprints
	return h
}

// ModelFingerprint exposes the runner's model fingerprint so callers
// opening a store before constructing runners (mixpd boot, the CLI) can
// compute the store fingerprint from the same inputs the cache keys use.
func (r *Runner) ModelFingerprint() uint64 { return r.modelFingerprint() }

// DefaultStoreFingerprint is the store fingerprint for the default
// machine model - the one every NewRunner-built runner uses. The model
// fingerprint covers only the machine and measurement protocol (never
// the workload seed), so one store serves campaigns at any seed.
func DefaultStoreFingerprint() uint64 {
	return StoreFingerprint(NewRunner(0).ModelFingerprint())
}

// storeTier adapts a *store.Store to runcache.Tier[Result].
type storeTier struct {
	st  *store.Store
	tel *telemetry.Recorder
}

// Load fetches and decodes the record for k. A record that fails to
// decode is treated as a miss (and counted); the purity key plus the
// fingerprint check make this near-impossible, but a miss merely
// re-executes, while trusting a bad decode would corrupt a campaign.
func (t storeTier) Load(k runcache.Key) (Result, bool) {
	raw, ok := t.st.Get(k.AppendBinary(nil))
	if !ok {
		return Result{}, false
	}
	r, err := DecodeResult(raw)
	if err != nil {
		if t.tel != nil {
			t.tel.Counter("mixpbench_store_decode_errors_total", "bench", k.Bench).Inc()
		}
		return Result{}, false
	}
	return r, true
}

// Store encodes and enqueues the record (write-behind; see store.Put).
func (t storeTier) Store(k runcache.Key, r Result) {
	t.st.Put(k.AppendBinary(nil), EncodeResult(nil, r))
}

// NewStoredCache returns a run cache backed by st as its durable tier:
// leaders consult the store before executing and publish fresh
// executions to it. A nil st yields a plain in-memory cache, so callers
// can thread an optional store unconditionally.
func NewStoredCache(tel *telemetry.Recorder, st *store.Store) *Cache {
	opts := runcache.Options[Result]{Telemetry: tel}
	if st != nil {
		opts.Tier = storeTier{st: st, tel: tel}
	}
	return newCache(opts)
}

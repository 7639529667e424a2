package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment format (see DESIGN.md "Durable result store" for the full
// spec). A segment is a fixed 24-byte header followed by append-only
// records:
//
//	header:  magic[8] "mixpstor" | version u32 | fingerprint u64 | crc u32
//	record:  keyLen u32 | valLen u32 | key | val | crc u32
//
// All integers are little-endian. Both CRCs are CRC32-C (Castagnoli)
// over every preceding byte of their unit (header: magic+version+
// fingerprint; record: both length words, key, and value). The checksum
// trailing the record rather than leading it is what makes torn-tail
// detection unambiguous: a record is valid iff it is fully contained in
// the file and its checksum matches, so the longest valid prefix of a
// segment is exactly the set of records whose append completed.

const (
	segMagic   = "mixpstor"
	segVersion = 1
	// headerLen is the fixed segment header size.
	headerLen = 8 + 4 + 8 + 4
	// recordOverhead is the framing cost per record.
	recordOverhead = 4 + 4 + 4
	// maxKeyLen and maxValLen bound the length words during recovery;
	// anything larger is corruption, not a record.
	maxKeyLen = 1 << 20
	maxValLen = 1 << 30
)

// castagnoli is the CRC32-C table shared by every checksum in the store.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends a segment header for the given fingerprint.
func appendHeader(dst []byte, fingerprint uint64) []byte {
	off := len(dst)
	dst = append(dst, segMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, segVersion)
	dst = binary.LittleEndian.AppendUint64(dst, fingerprint)
	crc := crc32.Checksum(dst[off:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// parseHeader validates a segment header and returns its fingerprint.
func parseHeader(b []byte) (fingerprint uint64, err error) {
	if len(b) < headerLen {
		return 0, fmt.Errorf("short header: %d bytes", len(b))
	}
	if string(b[:8]) != segMagic {
		return 0, fmt.Errorf("bad magic %q", b[:8])
	}
	crc := crc32.Checksum(b[:headerLen-4], castagnoli)
	if got := binary.LittleEndian.Uint32(b[headerLen-4 : headerLen]); got != crc {
		return 0, fmt.Errorf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != segVersion {
		return 0, fmt.Errorf("%w: segment version %d, this build writes %d",
			ErrVersion, v, segVersion)
	}
	return binary.LittleEndian.Uint64(b[12:20]), nil
}

// appendRecord appends one framed record.
func appendRecord(dst, key, val []byte) []byte {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val)))
	dst = append(dst, key...)
	dst = append(dst, val...)
	crc := crc32.Checksum(dst[off:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// recordSize is the on-disk size of a record with the given key and
// value lengths.
func recordSize(klen, vlen int) int64 {
	return int64(recordOverhead + klen + vlen)
}

// scanned is one record recovered from a segment scan.
type scanned struct {
	key string
	off int64 // offset of the record's first byte in the segment
	// klen and vlen locate the value inside the record.
	klen, vlen uint32
}

// scanResult is the outcome of scanning one segment's record region.
type scanResult struct {
	recs []scanned
	// validLen is the byte length of the longest valid prefix
	// (header included).
	validLen int64
	// torn is non-nil when the scan stopped before EOF: the remainder is
	// either a torn tail or corruption, described by the error.
	torn error
}

// scanSegment reads every valid record of an open segment file and
// reports the longest valid checksummed prefix. It never fails on
// corrupt data - corruption just ends the prefix - so callers decide
// whether to truncate (torn tail of the active segment) or quarantine
// (a sealed segment that should have been immutable). Every record is
// read into one reused buffer and only its key is copied out, so a scan
// allocates for the largest record and the index, not for the segment.
func scanSegment(f *os.File) (scanResult, error) {
	info, err := f.Stat()
	if err != nil {
		return scanResult{}, err
	}
	size := info.Size()
	res := scanResult{validLen: headerLen}
	var lenbuf [8]byte
	var buf []byte
	for off := int64(headerLen); off < size; {
		if size-off < int64(len(lenbuf)) {
			res.torn = fmt.Errorf("truncated length prefix at offset %d", off)
			return res, nil
		}
		if _, err := f.ReadAt(lenbuf[:], off); err != nil {
			return res, fmt.Errorf("read record lengths at %d: %w", off, err)
		}
		klen := binary.LittleEndian.Uint32(lenbuf[0:4])
		vlen := binary.LittleEndian.Uint32(lenbuf[4:8])
		if klen == 0 || klen > maxKeyLen || vlen > maxValLen {
			res.torn = fmt.Errorf("implausible record lengths key=%d val=%d at offset %d", klen, vlen, off)
			return res, nil
		}
		total := recordSize(int(klen), int(vlen))
		if off+total > size {
			res.torn = fmt.Errorf("record at offset %d extends past EOF", off)
			return res, nil
		}
		rec, err := readRecord(f, location{off: off, klen: klen, vlen: vlen}, buf)
		if errors.Is(err, errChecksum) {
			res.torn = err
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("read record at %d: %w", off, err)
		}
		buf = rec
		res.recs = append(res.recs, scanned{key: string(rec[8 : 8+klen]), off: off, klen: klen, vlen: vlen})
		off += total
		res.validLen = off
	}
	return res, nil
}

// errChecksum marks a record whose trailing checksum does not match its
// bytes.
var errChecksum = errors.New("record checksum mismatch")

// readRecord reads the framed record at loc into buf, reusing its
// capacity when it is large enough, and verifies the record checksum.
func readRecord(f *os.File, loc location, buf []byte) ([]byte, error) {
	total := recordSize(int(loc.klen), int(loc.vlen))
	if int64(cap(buf)) < total {
		buf = make([]byte, total)
	}
	rec := buf[:total]
	if _, err := f.ReadAt(rec, loc.off); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if binary.LittleEndian.Uint32(rec[total-4:]) != crc32.Checksum(rec[:total-4], castagnoli) {
		return nil, fmt.Errorf("%w at offset %d", errChecksum, loc.off)
	}
	return rec, nil
}

// readValue reads and re-verifies one record, returning its value. The
// checksum is checked on every read, not only at open, so silent media
// corruption surfaces as a miss instead of a poisoned result. The value
// is a view, capped at its length, of the one buffer the record was
// read into: nothing else references that buffer, so the caller owns
// the value.
func readValue(f *os.File, loc location) ([]byte, error) {
	rec, err := readRecord(f, loc, nil)
	if err != nil {
		return nil, err
	}
	start := 8 + int(loc.klen)
	end := start + int(loc.vlen)
	return rec[start:end:end], nil
}

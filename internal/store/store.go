// Package store is a durable, content-addressed result store: the disk
// tier behind the run cache. The paper's campaigns are multi-day cluster
// runs because every evaluation is re-paid from scratch; the in-process
// run cache (internal/runcache) amortises evaluations within one process,
// and this package lifts that amortisation across process generations.
// Every record is keyed by the five-input purity key (bench, seed,
// semantics, machine fingerprint, config), so the space of distinct
// records is finite and a long-lived shared store converges to a
// near-100% hit rate.
//
// Layout: a directory of append-only segments (NNNNNNNN.seg), each a
// checksummed header plus CRC32-C framed records (see segment.go). The
// highest-numbered segment is the active append target; the rest are
// sealed. Writes are write-behind - Put enqueues, a single writer
// goroutine appends in batches and fsyncs once per batch (group commit) -
// and every create/rotate also fsyncs the parent directory, so a record
// acknowledged by Sync can never be lost to a crash.
//
// Recovery: opening a store scans every segment to its longest valid
// checksummed prefix. A scan that stops early in the ACTIVE segment is a
// torn tail (the process died mid-append, before the fsync completed) and
// is truncated away - by construction nothing fsync'd is in the torn
// region. A scan that stops early in a SEALED segment is real corruption
// (sealed segments were fully synced before rotation): its valid prefix
// is rescued into the active segment and the corrupt file is moved to
// quarantine/ rather than refusing to boot. A fingerprint mismatch in a
// segment header refuses the store outright - mirroring the checkpoint
// journal's fingerprint check - because records written under a different
// machine model or result encoding would silently never hit.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors, for errors.Is. Each failure mode of opening a store
// is distinct and actionable: the message says what is wrong with the
// directory and what to do about it.
var (
	// ErrFingerprint refuses a store written under an incompatible
	// machine model or result encoding.
	ErrFingerprint = errors.New("store: fingerprint mismatch")
	// ErrVersion refuses a store written by an incompatible format
	// version of this package.
	ErrVersion = errors.New("store: incompatible segment format version")
	// ErrReadOnly reports a store that cannot be opened for writing, or
	// a mutating operation on a read-only store.
	ErrReadOnly = errors.New("store: not writable")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("store: closed")
)

// Options configures a Store.
type Options struct {
	// Fingerprint identifies the model and encoding the records were
	// produced under. Open refuses a store whose segments carry a
	// different fingerprint (ErrFingerprint): its records would describe
	// a different machine and could silently never match.
	Fingerprint uint64
	// ReadOnly opens the store for reads only: Put drops (counted), no
	// writer goroutine starts, and recovery never modifies the directory
	// (torn tails are tolerated in place, nothing is quarantined or
	// truncated).
	ReadOnly bool
	// MaxSegmentBytes rotates the active segment when it grows past this
	// size (default 8 MiB).
	MaxSegmentBytes int64
	// MaxBytes, when positive, is the live-data budget: compaction
	// evicts the oldest records until live bytes fit under it.
	MaxBytes int64
	// CompactFraction triggers background compaction when dead bytes
	// (superseded duplicates) exceed this fraction of the store
	// (default 0.5).
	CompactFraction float64
}

// location addresses one record inside a segment.
type location struct {
	seg        uint64
	off        int64
	klen, vlen uint32
}

// segment is one open segment file.
type segment struct {
	id   uint64
	f    *os.File
	size int64
}

// Stats is a point-in-time view of the store's contents and health.
// WriteErrors, LastError, and Quarantined feed the mixpd /healthz
// endpoint: a store that cannot persist records any more is a daemon a
// load balancer should stop routing to.
type Stats struct {
	// Records is the number of live records.
	Records uint64 `json:"records"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// LiveBytes and DeadBytes split the on-disk record bytes into
	// reachable records and superseded duplicates awaiting compaction.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// Gets counts lookups; GetHits the ones served.
	Gets    uint64 `json:"gets"`
	GetHits uint64 `json:"get_hits"`
	// Puts counts records appended durably; DroppedPuts counts puts
	// discarded because the store is read-only, failed, or closed.
	Puts        uint64 `json:"puts"`
	DroppedPuts uint64 `json:"dropped_puts"`
	// WriteErrors counts append/fsync failures. The first one marks the
	// store failed: reads keep working, writes drop.
	WriteErrors uint64 `json:"write_errors"`
	// ReadErrors counts record reads that failed checksum or IO.
	ReadErrors uint64 `json:"read_errors"`
	// Recovery counters from Open: segments moved aside, torn-tail bytes
	// truncated from the active segment, records salvaged out of corrupt
	// sealed segments.
	Quarantined    int   `json:"quarantined"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	RescuedRecords int   `json:"rescued_records"`
	// Compactions counts completed compaction passes; Evicted the
	// records dropped to fit MaxBytes.
	Compactions uint64 `json:"compactions"`
	Evicted     uint64 `json:"evicted"`
	// ReadOnly reports the open mode.
	ReadOnly bool `json:"read_only"`
	// Healthy is false once a write error marked the store failed.
	Healthy bool `json:"healthy"`
	// LastError describes the most recent write failure.
	LastError string `json:"last_error,omitempty"`
}

// putReq is one queued writer-goroutine request: a record append, a
// Sync barrier (flush), or a compaction request (compact). Routing
// compaction through the writer serialises it with appends, so no two
// goroutines ever touch the active segment.
type putReq struct {
	key, val []byte
	flush    chan error
	compact  chan error
}

// rescueSeg is a corrupt sealed segment awaiting salvage at Open.
type rescueSeg struct {
	seg  *segment
	recs []scanned
}

// Store is a durable content-addressed result store. All methods are
// safe for concurrent use; a nil *Store is a valid empty read-only store
// (Get misses, Put drops), so callers can thread an optional store
// without nil checks.
type Store struct {
	dir  string
	opts Options

	mu      sync.RWMutex
	index   map[string]location
	segs    map[uint64]*segment
	active  *segment
	nextID  uint64
	stats   Stats
	failed  bool
	lastErr error

	// The Stats counters that Get and Put bump without holding mu.
	gets, getHits, readErrors, droppedPuts atomic.Uint64

	// wbuf is the writer goroutine's batch buffer, kept between batches
	// up to MaxSegmentBytes of capacity. Only the writer touches it.
	wbuf []byte

	closing    atomic.Bool
	putWG      sync.WaitGroup
	putCh      chan putReq
	writerDone chan struct{}
}

// Open opens (or creates) the store at dir, replaying every segment into
// the in-memory index - the cache warm-up that makes a restarted daemon
// serve its previous generation's results. See the package comment for
// the recovery rules.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 8 << 20
	}
	if opts.CompactFraction <= 0 {
		opts.CompactFraction = 0.5
	}
	if !opts.ReadOnly {
		if err := EnsureDir(dir); err != nil {
			return nil, fmt.Errorf("%w: create %s: %v; fix permissions or open read-only", ErrReadOnly, dir, err)
		}
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		index:      make(map[string]location),
		segs:       make(map[uint64]*segment),
		nextID:     1,
		putCh:      make(chan putReq, 256),
		writerDone: make(chan struct{}),
	}
	s.stats.ReadOnly = opts.ReadOnly
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if !opts.ReadOnly {
		if s.active == nil {
			if err := s.newSegment(); err != nil {
				s.closeFiles()
				return nil, err
			}
		}
		go s.writer()
	}
	return s, nil
}

// load scans the directory and rebuilds the index.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: read %s: %w", s.dir, err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && !s.opts.ReadOnly {
			// Leftover of a crashed rotation or compaction; it was never
			// renamed into place, so nothing references it.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var rescues []rescueSeg
	for i, id := range ids {
		if err := s.loadSegment(id, i == len(ids)-1, &rescues); err != nil {
			return err
		}
	}
	if len(ids) > 0 {
		s.nextID = ids[len(ids)-1] + 1
	}

	// Salvage the valid prefixes of corrupt sealed segments: re-append
	// their still-reachable records to the active segment so the next
	// generation does not depend on the corrupt file, then move it to
	// quarantine. Runs after every segment is indexed because a later
	// segment may supersede a rescued record.
	for _, r := range rescues {
		for _, rec := range r.recs {
			loc, ok := s.index[rec.key]
			if !ok || loc.seg != r.seg.id {
				continue
			}
			val, err := readValue(r.seg.f, loc)
			if err != nil {
				s.readErrors.Add(1)
				s.dropLocked(rec.key, loc)
				continue
			}
			if err := s.appendDirect([]byte(rec.key), val); err != nil {
				return err
			}
			s.stats.RescuedRecords++
		}
		s.quarantine(r.seg)
	}
	return nil
}

// loadSegment opens and scans one segment. last marks the active
// (highest-numbered) segment, whose torn tail is truncated rather than
// quarantined.
func (s *Store) loadSegment(id uint64, last bool, rescues *[]rescueSeg) error {
	path := s.segPath(id)
	flags := os.O_RDONLY
	if !s.opts.ReadOnly {
		flags = os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if !s.opts.ReadOnly {
			return fmt.Errorf("%w: open %s for writing: %v; fix permissions or open read-only", ErrReadOnly, path, err)
		}
		return fmt.Errorf("store: open %s: %w", path, err)
	}
	hdr := make([]byte, headerLen)
	n, _ := f.ReadAt(hdr, 0)
	fp, err := parseHeader(hdr[:n])
	if err != nil {
		if errors.Is(err, ErrVersion) {
			f.Close()
			return fmt.Errorf("%w (%s); this store was written by an incompatible build - migrate it or point at a fresh directory", err, path)
		}
		// Unreadable header: nothing in the segment is trustworthy.
		s.quarantine(&segment{id: id, f: f})
		return nil
	}
	if fp != s.opts.Fingerprint {
		f.Close()
		return fmt.Errorf("%w: segment %s was written under fingerprint %016x, this process computes %016x; the machine model or result encoding changed - point at a fresh store directory",
			ErrFingerprint, path, fp, s.opts.Fingerprint)
	}
	res, err := scanSegment(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: scan %s: %w", path, err)
	}
	seg := &segment{id: id, f: f, size: res.validLen}
	if res.torn != nil && !s.opts.ReadOnly {
		if last {
			// Torn tail of the active segment: the crash happened
			// mid-append. Truncating to the longest valid prefix loses
			// nothing that was ever fsync'd.
			info, statErr := f.Stat()
			if statErr != nil {
				f.Close()
				return fmt.Errorf("store: stat %s: %w", path, statErr)
			}
			if err := f.Truncate(res.validLen); err != nil {
				f.Close()
				return fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("store: sync truncated %s: %w", path, err)
			}
			s.stats.TruncatedBytes += info.Size() - res.validLen
		} else {
			// Corruption inside a sealed segment: index its valid prefix
			// now and queue it for salvage + quarantine.
			s.indexRecords(seg, res.recs)
			*rescues = append(*rescues, rescueSeg{seg: seg, recs: res.recs})
			return nil
		}
	}
	s.indexRecords(seg, res.recs)
	s.segs[id] = seg
	if last {
		s.active = seg
	}
	return nil
}

// indexRecords folds one segment's scanned records into the index.
// Later segments override earlier ones (the key is pure, so duplicate
// values are identical; the override just retires dead bytes).
func (s *Store) indexRecords(seg *segment, recs []scanned) {
	for _, rec := range recs {
		loc := location{seg: seg.id, off: rec.off, klen: rec.klen, vlen: rec.vlen}
		if old, ok := s.index[rec.key]; ok {
			s.dropLocked(rec.key, old)
		}
		s.index[rec.key] = loc
		s.stats.Records++
		s.stats.LiveBytes += recordSize(int(rec.klen), int(rec.vlen))
	}
}

// dropLocked removes one record from the index; its bytes become dead.
func (s *Store) dropLocked(key string, loc location) {
	delete(s.index, key)
	s.stats.Records--
	sz := recordSize(int(loc.klen), int(loc.vlen))
	s.stats.LiveBytes -= sz
	s.stats.DeadBytes += sz
}

// quarantine moves a corrupt segment file into quarantine/ so the store
// boots without it but an operator can still inspect the bytes.
func (s *Store) quarantine(seg *segment) {
	seg.f.Close()
	s.stats.Quarantined++
	if s.opts.ReadOnly {
		return
	}
	qdir := filepath.Join(s.dir, "quarantine")
	src := s.segPath(seg.id)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(src, filepath.Join(qdir, filepath.Base(src))); err == nil {
			SyncDir(qdir)
			SyncDir(s.dir)
		}
	}
}

// segPath names segment id's file.
func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.seg", id))
}

// newSegment creates the next segment and makes it active: header
// written and fsync'd under a temporary name, renamed into place, parent
// directory fsync'd - so a crash anywhere leaves either no new segment
// or a complete empty one, never a half-written header.
func (s *Store) newSegment() error {
	id := s.nextID
	path := s.segPath(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("%w: create segment %s: %v; fix permissions or open read-only", ErrReadOnly, tmp, err)
	}
	if _, err := f.Write(appendHeader(nil, s.opts.Fingerprint)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: sync segment header: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: install segment: %w", err)
	}
	if err := SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", s.dir, err)
	}
	seg := &segment{id: id, f: f, size: headerLen}
	s.segs[id] = seg
	s.active = seg
	s.nextID = id + 1
	return nil
}

// appendDirect writes one record synchronously. Only used during Open's
// salvage pass, before the writer goroutine exists.
func (s *Store) appendDirect(key, val []byte) error {
	if s.active == nil {
		if err := s.newSegment(); err != nil {
			return err
		}
	}
	buf := appendRecord(nil, key, val)
	if _, err := s.active.f.WriteAt(buf, s.active.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.active.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	loc := location{seg: s.active.id, off: s.active.size, klen: uint32(len(key)), vlen: uint32(len(val))}
	s.active.size += int64(len(buf))
	if old, ok := s.index[string(key)]; ok {
		s.dropLocked(string(key), old)
	}
	s.index[string(key)] = loc
	s.stats.Records++
	s.stats.LiveBytes += recordSize(len(key), len(val))
	return nil
}

// Get returns the value for key, or false. Every read re-verifies the
// record checksum; a record that fails verification counts as a read
// error and a miss, never a wrong answer. The value is the caller's: it
// shares memory with nothing the store keeps.
func (s *Store) Get(key []byte) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.gets.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[string(key)]
	if !ok {
		return nil, false
	}
	seg, ok := s.segs[loc.seg]
	if !ok {
		return nil, false
	}
	val, err := readValue(seg.f, loc)
	if err != nil {
		s.readErrors.Add(1)
		return nil, false
	}
	s.getHits.Add(1)
	return val, true
}

// Put enqueues one record for durable append. The write is behind: Put
// returns immediately and the writer goroutine batches appends with one
// fsync per batch (group commit). Call Sync to wait for durability. Puts
// on a read-only, failed, or closed store are dropped and counted -
// degrading the store never degrades the campaign.
//
// Put takes ownership of key and val without copying them: the caller
// must not modify either slice afterwards. The store only reads them, so
// one read-only buffer may be passed to any number of Puts.
func (s *Store) Put(key, val []byte) {
	if s == nil {
		return
	}
	if s.opts.ReadOnly {
		s.droppedPuts.Add(1)
		return
	}
	// The WaitGroup + closing flag make Put/Close race-free without a
	// lock around the channel: a Put that registers before Close flips
	// closing is guaranteed the channel stays open until it sends
	// (Close waits on the group before closing the channel); a Put that
	// observes closing drops instead of sending.
	s.putWG.Add(1)
	defer s.putWG.Done()
	if s.closing.Load() {
		s.droppedPuts.Add(1)
		return
	}
	s.putCh <- putReq{key: key, val: val}
}

// Sync blocks until every Put enqueued before it is durable (written
// and fsync'd), returning the store's write error if it has failed.
func (s *Store) Sync() error {
	return s.barrier(func(ch chan error) putReq { return putReq{flush: ch} })
}

// Compact forces a compaction pass: live records are rewritten into a
// fresh segment oldest-first, old segments are removed, and (under a
// MaxBytes budget) the oldest records are evicted. Compaction also runs
// automatically after growth when dead bytes pass CompactFraction; the
// export exists for tests and operational tooling.
func (s *Store) Compact() error {
	if s != nil && s.opts.ReadOnly {
		return fmt.Errorf("%w: compact", ErrReadOnly)
	}
	return s.barrier(func(ch chan error) putReq { return putReq{compact: ch} })
}

// barrier sends one control request through the writer goroutine and
// waits for its answer, following the same close-safety protocol as Put.
func (s *Store) barrier(mk func(chan error) putReq) error {
	if s == nil || s.opts.ReadOnly {
		return nil
	}
	s.putWG.Add(1)
	if s.closing.Load() {
		s.putWG.Done()
		return ErrClosed
	}
	ch := make(chan error, 1)
	s.putCh <- mk(ch)
	s.putWG.Done()
	return <-ch
}

// writer is the single append goroutine: it drains the queue in batches,
// writes every record of a batch, fsyncs once, then publishes the
// locations. Rotation and compaction run here too, so no other goroutine
// ever touches the active segment.
func (s *Store) writer() {
	defer close(s.writerDone)
	for req := range s.putCh {
		batch := []putReq{req}
	drain:
		for len(batch) < 128 {
			select {
			case more, ok := <-s.putCh:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		s.runBatch(batch)
	}
}

// runBatch appends one batch of queued puts, answers its barriers, and
// runs any requested or triggered compaction.
func (s *Store) runBatch(batch []putReq) {
	var flushes, compacts []chan error
	var recs []putReq
	s.mu.RLock()
	failed, lastErr := s.failed, s.lastErr
	for _, req := range batch {
		switch {
		case req.flush != nil:
			flushes = append(flushes, req.flush)
		case req.compact != nil:
			compacts = append(compacts, req.compact)
		case failed:
			s.droppedPuts.Add(1)
		default:
			if _, dup := s.index[string(req.key)]; !dup {
				recs = append(recs, req)
			}
			// A duplicate is silently satisfied: the key is pure, so the
			// existing record already holds this exact value.
		}
	}
	s.mu.RUnlock()

	err := s.writeRecords(recs)
	if err != nil {
		s.mu.Lock()
		s.failed = true
		s.lastErr = err
		s.stats.WriteErrors++
		s.mu.Unlock()
		s.droppedPuts.Add(uint64(len(recs)))
	} else if failed {
		err = lastErr
	}
	for _, ch := range flushes {
		ch <- err
	}
	if err == nil && len(compacts) == 0 && s.shouldCompact() {
		if cerr := s.compact(); cerr != nil {
			s.noteWriteError(cerr)
		}
	}
	for _, ch := range compacts {
		if err != nil {
			ch <- err
		} else {
			ch <- s.compact()
		}
	}
}

// noteWriteError marks the store failed after a background write error.
func (s *Store) noteWriteError(err error) {
	s.mu.Lock()
	s.failed = true
	s.lastErr = err
	s.stats.WriteErrors++
	s.mu.Unlock()
}

// writeRecords appends the records to the active segment, fsyncs, then
// publishes their locations and rotates if the segment is full. Runs on
// the writer goroutine only. The batch is framed into s.wbuf, grown to
// the batch's exact size before the first append when it is too small,
// and kept for the next batch unless it outgrew MaxSegmentBytes.
func (s *Store) writeRecords(recs []putReq) error {
	if len(recs) == 0 {
		return nil
	}
	// Dedup inside the batch too: two workers can race the same key into
	// the queue before either is indexed.
	seen := make(map[string]bool, len(recs))
	type placed struct {
		req putReq
		off int64
	}
	placedRecs := make([]placed, 0, len(recs))
	base := s.active.size
	size := int64(0)
	for _, req := range recs {
		if seen[string(req.key)] {
			continue
		}
		seen[string(req.key)] = true
		placedRecs = append(placedRecs, placed{req: req, off: base + size})
		size += recordSize(len(req.key), len(req.val))
	}
	if int64(cap(s.wbuf)) < size {
		s.wbuf = make([]byte, 0, size)
	}
	buf := s.wbuf[:0]
	for _, p := range placedRecs {
		buf = appendRecord(buf, p.req.key, p.req.val)
	}
	if int64(cap(s.wbuf)) > s.opts.MaxSegmentBytes {
		s.wbuf = nil
	}
	// WriteAt, not Write: a segment reopened by recovery has file offset
	// zero, and appends must land at its logical end regardless.
	if _, err := s.active.f.WriteAt(buf, base); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.active.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.mu.Lock()
	for _, p := range placedRecs {
		loc := location{seg: s.active.id, off: p.off, klen: uint32(len(p.req.key)), vlen: uint32(len(p.req.val))}
		if old, ok := s.index[string(p.req.key)]; ok {
			s.dropLocked(string(p.req.key), old)
		}
		s.index[string(p.req.key)] = loc
		s.stats.Records++
		s.stats.LiveBytes += recordSize(len(p.req.key), len(p.req.val))
		s.stats.Puts++
	}
	s.active.size += size
	rotate := s.active.size >= s.opts.MaxSegmentBytes
	var err error
	if rotate {
		err = s.newSegment()
	}
	s.mu.Unlock()
	return err
}

// shouldCompact reports whether dead bytes or the size budget call for
// a compaction pass.
func (s *Store) shouldCompact() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.failed {
		return false
	}
	total := s.stats.LiveBytes + s.stats.DeadBytes
	if total == 0 {
		return false
	}
	if s.stats.DeadBytes > 64<<10 && float64(s.stats.DeadBytes)/float64(total) > s.opts.CompactFraction {
		return true
	}
	return s.opts.MaxBytes > 0 && total > s.opts.MaxBytes
}

// compact rewrites the live records into a fresh segment and retires
// every old one. Runs on the writer goroutine (serialised with appends);
// holds the write lock for the whole pass, which is acceptable at
// result-store sizes and keeps Get trivially consistent.
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Order live records oldest-first (segment id, then offset): the
	// eviction budget drops from the front, and the rewrite preserves
	// age order so future evictions stay meaningful.
	type liveRec struct {
		key string
		loc location
	}
	live := make([]liveRec, 0, len(s.index))
	for k, loc := range s.index {
		live = append(live, liveRec{key: k, loc: loc})
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].loc.seg != live[j].loc.seg {
			return live[i].loc.seg < live[j].loc.seg
		}
		return live[i].loc.off < live[j].loc.off
	})
	keep := s.stats.LiveBytes
	if s.opts.MaxBytes > 0 {
		for len(live) > 0 && keep > s.opts.MaxBytes {
			keep -= recordSize(int(live[0].loc.klen), int(live[0].loc.vlen))
			s.stats.Evicted++
			live = live[1:]
		}
	}

	id := s.nextID
	path := s.segPath(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Records move verbatim: each is read into one reused buffer, its
	// checksum verified, and appended to a segment image sized from the
	// live bytes it keeps.
	buf := appendHeader(make([]byte, 0, headerLen+keep), s.opts.Fingerprint)
	newIndex := make(map[string]location, len(live))
	var liveBytes int64
	var rec []byte
	for _, r := range live {
		got, err := readRecord(s.segs[r.loc.seg].f, r.loc, rec)
		if err != nil {
			s.readErrors.Add(1)
			continue
		}
		rec = got
		newIndex[r.key] = location{seg: id, off: int64(len(buf)), klen: r.loc.klen, vlen: r.loc.vlen}
		buf = append(buf, rec...)
		liveBytes += int64(len(rec))
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compact install: %w", err)
	}
	if err := SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("store: compact sync dir: %w", err)
	}
	// The new segment is durable; retire every old one. A crash between
	// the rename and the removals leaves duplicate records, which the
	// next Open resolves (later segment wins; values are identical by
	// purity), so there is no unsafe window.
	for oldID, seg := range s.segs {
		seg.f.Close()
		os.Remove(s.segPath(oldID))
	}
	SyncDir(s.dir)
	newSeg := &segment{id: id, f: f, size: int64(len(buf))}
	s.segs = map[uint64]*segment{id: newSeg}
	s.active = newSeg
	s.nextID = id + 1
	s.index = newIndex
	s.stats.Records = uint64(len(newIndex))
	s.stats.LiveBytes = liveBytes
	s.stats.DeadBytes = 0
	s.stats.Compactions++
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{ReadOnly: true, Healthy: true}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Gets = s.gets.Load()
	st.GetHits = s.getHits.Load()
	st.ReadErrors = s.readErrors.Load()
	st.DroppedPuts = s.droppedPuts.Load()
	st.Segments = len(s.segs)
	st.Healthy = !s.failed
	if s.lastErr != nil {
		st.LastError = s.lastErr.Error()
	}
	return st
}

// Healthy reports whether the store can still persist records.
func (s *Store) Healthy() bool {
	if s == nil {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.failed
}

// Dir returns the store's directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Close flushes the write queue, fsyncs, and closes every segment.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	if s.closing.Swap(true) {
		return ErrClosed
	}
	if !s.opts.ReadOnly {
		s.putWG.Wait()
		close(s.putCh)
		<-s.writerDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.active != nil && !s.failed {
		if err := s.active.f.Sync(); err != nil {
			first = err
		}
	}
	s.closeFilesLocked(&first)
	return first
}

// closeFiles closes every open segment (Open's error paths, pre-writer).
func (s *Store) closeFiles() {
	var first error
	s.closeFilesLocked(&first)
}

// closeFilesLocked closes segment files, keeping the first error.
func (s *Store) closeFilesLocked(first *error) {
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && *first == nil {
			*first = err
		}
	}
	s.segs = map[uint64]*segment{}
	s.active = nil
}

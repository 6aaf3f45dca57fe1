// Package wal implements a segmented write-ahead log: the durability
// substrate under each site's local database. Records are opaque byte
// payloads framed with a length and a CRC-32 checksum; the log assigns
// dense, monotonically increasing LSNs starting at 1.
//
// The log is split into segment files named wal-<firstLSN>.seg so that
// TruncateBefore (after a storage checkpoint) can drop whole files, and
// so that recovery knows each segment's starting LSN without an index.
// A torn final record (from a crash mid-append) is tolerated at the tail
// of the last segment only; corruption anywhere else is an error.
//
// Durability is pipelined as group commit. Append only encodes the
// record into an in-memory buffer (at most one write syscall per record,
// usually zero); SyncTo(lsn) parks the caller until a group-commit round
// has flushed the buffer and fsynced once, covering every record
// appended before the flush. Concurrent waiters share that single fsync:
// one leader at a time runs a round (serialized by syncMu), publishes
// the new durable LSN, and every waiter at or below it returns without
// touching the disk. DurableLSN reports the published watermark.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/metrics"
)

// Log errors.
var (
	ErrClosed    = errors.New("wal: log closed")
	ErrCorrupt   = errors.New("wal: corrupt record")
	ErrShortRead = errors.New("wal: torn record at tail")
)

const (
	headerSize        = 8 // u32 length + u32 crc
	defaultSegmentMax = 4 << 20
	segPrefix         = "wal-"
	segSuffix         = ".seg"
	// preallocName is the staging name for the background-created next
	// segment; it is renamed into place at rotation. A leftover tmp from
	// a crash is removed at Open.
	preallocName = "wal-next.tmp"
	// flushThreshold bounds the append buffer: once it holds this many
	// bytes Append flushes it to the OS (no fsync) so memory stays flat
	// under sync-free workloads.
	flushThreshold = 1 << 20
)

// Stats counts the durability work a Log performs. The atomic counters
// are always maintained; the histograms are observed only when non-nil
// (they retain every sample, so long-lived processes opt in explicitly,
// typically when the admin/observability server is enabled).
type Stats struct {
	// Fsyncs counts physical fsync syscalls issued.
	Fsyncs atomic.Int64
	// SyncRounds counts group-commit rounds that advanced the durable
	// LSN (each round is at most one fsync of the current segment, plus
	// one per rotated-away segment with unsynced writes).
	SyncRounds atomic.Int64
	// RecordsSynced totals records made durable across all rounds;
	// RecordsSynced/SyncRounds is the mean group-commit batch size.
	RecordsSynced atomic.Int64
	// GroupSize, when non-nil, observes the per-round batch size
	// (records per round, stored as a unitless time.Duration count).
	GroupSize *metrics.Histogram
	// SyncWait, when non-nil, observes per-caller wall time spent inside
	// SyncTo waiting for durability.
	SyncWait *metrics.Histogram
}

// Options tune a Log.
type Options struct {
	// SegmentMaxBytes rotates to a new segment once the current one
	// exceeds this size (default 4 MiB).
	SegmentMaxBytes int64
	// NoSync skips fsync in group-commit rounds: SyncTo still flushes
	// the buffer to the OS and publishes the durable LSN, but durability
	// against power loss is waived. Experiments that only need the code
	// path set this for speed.
	NoSync bool
	// Stats, when non-nil, receives the log's durability counters —
	// pass a shared instance to aggregate across logs. Nil allocates a
	// private one, reachable via (*Log).Stats().
	Stats *Stats
}

// Log is a segmented write-ahead log. It is safe for concurrent use.
type Log struct {
	dir   string
	opts  Options
	stats *Stats

	// durable is the published group-commit watermark: every record with
	// LSN <= durable has been flushed and (unless NoSync) fsynced. Only
	// a group-commit leader or Close stores it, both under syncMu.
	durable atomic.Uint64

	// syncMu serializes group-commit rounds (leader election): whoever
	// holds it runs the flush+fsync for everyone parked behind it.
	// Lock order: syncMu before mu, never the reverse.
	syncMu sync.Mutex

	mu       sync.Mutex
	closed   bool
	nextLSN  uint64 // LSN the next Append will receive
	firstLSN uint64 // smallest LSN still present (1 if never truncated)
	cur      *os.File
	curFirst uint64     // first LSN of the current segment
	curSize  int64      // bytes in the current segment, written + buffered
	buf      []byte     // encoded records not yet written to cur
	written  uint64     // highest LSN flushed to the OS
	dirty    []*os.File // rotated-away segments with writes not yet fsynced
	failed   error      // sticky: a write/fsync failed, durability unknown

	prealloc     *os.File // background-created next segment, if ready
	preallocPath string
	preallocBusy bool
	preallocWG   sync.WaitGroup
}

// Open opens (or creates) a log in dir.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = defaultSegmentMax
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A crash may leave a staged next-segment file behind; it holds no
	// records, so drop it rather than let it shadow a future prealloc.
	_ = os.Remove(filepath.Join(dir, preallocName))
	l := &Log{dir: dir, opts: opts, stats: opts.Stats, nextLSN: 1, firstLSN: 1}
	if l.stats == nil {
		l.stats = &Stats{}
	}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.rotateLocked(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.firstLSN = segs[0].first
	// Scan the last segment to find the next LSN and truncate a torn tail.
	last := segs[len(segs)-1]
	n, validBytes, err := scanSegment(last.path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.cur = f
	l.curFirst = last.first
	l.curSize = validBytes
	l.nextLSN = last.first + n
	l.written = l.nextLSN - 1
	l.durable.Store(l.written) // recovered records are on stable storage
	// Count records in earlier segments to sanity-check continuity.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].first <= segs[i].first {
			return nil, fmt.Errorf("wal: segment order corrupt: %d then %d", segs[i].first, segs[i+1].first)
		}
	}
	return l, nil
}

type segInfo struct {
	first uint64
	path  string
}

// segments lists segment files sorted by first LSN.
func (l *Log) segments() ([]segInfo, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numStr := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(numStr, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{first: first, path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

// flushLocked writes the append buffer to the current segment with a
// single syscall. Caller holds l.mu.
func (l *Log) flushLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.cur.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: %w", err)
		return l.failed
	}
	l.buf = l.buf[:0]
	l.written = l.nextLSN - 1
	return nil
}

// rotateLocked flushes buffered records into the current segment, parks
// it on the dirty list (the next group-commit round fsyncs and closes
// it), and starts a new segment whose first record will carry LSN
// first. A background-preallocated file is renamed into place when
// available so rotation does not stall appenders on file creation.
// Caller holds l.mu.
func (l *Log) rotateLocked(first uint64) error {
	if l.cur != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		l.dirty = append(l.dirty, l.cur)
	}
	path := filepath.Join(l.dir, segName(first))
	if l.prealloc != nil {
		f, staged := l.prealloc, l.preallocPath
		l.prealloc, l.preallocPath = nil, ""
		if err := os.Rename(staged, path); err == nil {
			l.cur = f
			l.curFirst = first
			l.curSize = 0
			return nil
		}
		f.Close()
		os.Remove(staged)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.cur = f
	l.curFirst = first
	l.curSize = 0
	return nil
}

// maybePreallocLocked stages the next segment file in the background
// once the current segment is half full. Caller holds l.mu.
func (l *Log) maybePreallocLocked() {
	if l.preallocBusy || l.prealloc != nil || l.curSize < l.opts.SegmentMaxBytes/2 {
		return
	}
	l.preallocBusy = true
	l.preallocWG.Add(1)
	go func() {
		defer l.preallocWG.Done()
		path := filepath.Join(l.dir, preallocName)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
		l.mu.Lock()
		defer l.mu.Unlock()
		l.preallocBusy = false
		if err != nil {
			return // rotation falls back to creating the file inline
		}
		if l.closed || l.prealloc != nil {
			f.Close()
			os.Remove(path)
			return
		}
		l.prealloc = f
		l.preallocPath = path
	}()
}

// Append encodes payload as the next record into the log's buffer and
// returns its LSN. The record reaches the OS on the next flush (buffer
// cap, rotation, Replay, or a group-commit round) and stable storage
// once a SyncTo/Sync round covers it; an effect that must not escape
// the site before it is durable should wait on SyncTo(lsn).
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if l.curSize >= l.opts.SegmentMaxBytes {
		if err := l.rotateLocked(l.nextLSN); err != nil {
			return 0, err
		}
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.curSize += int64(headerSize + len(payload))
	lsn := l.nextLSN
	l.nextLSN++
	if len(l.buf) >= flushThreshold {
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
	}
	l.maybePreallocLocked()
	return lsn, nil
}

// DurableLSN returns the highest LSN known to be on stable storage
// (or flushed, under NoSync). It only increases.
func (l *Log) DurableLSN() uint64 {
	return l.durable.Load()
}

// Stats returns the log's durability counters.
func (l *Log) Stats() *Stats {
	return l.stats
}

// SyncTo blocks until every record with LSN <= lsn is durable. Many
// concurrent callers share one fsync: the first to acquire syncMu runs
// a group-commit round for everyone parked behind it, and waiters whose
// LSN the published watermark already covers return immediately.
// lsn 0 (no covering record) returns nil at once.
func (l *Log) SyncTo(lsn uint64) error {
	if lsn == 0 || l.durable.Load() >= lsn {
		return nil
	}
	var start time.Time
	if l.stats.SyncWait != nil {
		start = time.Now()
	}
	for l.durable.Load() < lsn {
		l.syncMu.Lock()
		if l.durable.Load() >= lsn {
			// A leader's round covered us while we were parked.
			l.syncMu.Unlock()
			break
		}
		err := l.syncRoundLeader()
		l.syncMu.Unlock()
		if err != nil {
			return err
		}
		if l.durable.Load() >= lsn {
			break
		}
		// The round completed without covering lsn, so lsn was never
		// appended (or was lost to recovery truncation): error out
		// rather than spin forever.
		l.mu.Lock()
		next := l.nextLSN
		l.mu.Unlock()
		if lsn >= next {
			return fmt.Errorf("wal: SyncTo(%d): highest appended LSN is %d", lsn, next-1)
		}
	}
	if l.stats.SyncWait != nil {
		l.stats.SyncWait.Observe(time.Since(start))
	}
	return nil
}

// syncRoundLeader runs one group-commit round: flush the append buffer,
// fsync (unless NoSync) every file carrying unsynced records, publish
// the new durable LSN. Caller holds l.syncMu.
func (l *Log) syncRoundLeader() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	target := l.written
	cur := l.cur
	dirty := l.dirty
	l.dirty = nil
	l.mu.Unlock()

	prev := l.durable.Load()
	if target <= prev && len(dirty) == 0 {
		return nil
	}
	if !l.opts.NoSync {
		// Rotated-away segments first: replay order must never show a
		// durable record whose predecessors are not.
		for _, f := range dirty {
			if err := f.Sync(); err != nil {
				return l.fail(err)
			}
			l.stats.Fsyncs.Add(1)
		}
		if target > prev {
			if err := cur.Sync(); err != nil {
				return l.fail(err)
			}
			l.stats.Fsyncs.Add(1)
		}
	}
	for _, f := range dirty {
		f.Close()
	}
	if target > prev {
		l.durable.Store(target)
		l.stats.SyncRounds.Add(1)
		l.stats.RecordsSynced.Add(int64(target - prev))
		if l.stats.GroupSize != nil {
			l.stats.GroupSize.Observe(time.Duration(target - prev))
		}
	}
	return nil
}

// fail records a sticky durability failure: once a flush or fsync has
// failed the on-disk suffix is unknowable, so the log refuses further
// appends and syncs instead of pretending.
func (l *Log) fail(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: %w", err)
	}
	return l.failed
}

// Sync flushes everything appended so far to stable storage (one
// group-commit round covering the whole tail).
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	lsn := l.nextLSN - 1
	l.mu.Unlock()
	return l.SyncTo(lsn)
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// FirstLSN returns the smallest LSN still retained.
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// Replay calls fn for every record with LSN >= from, in order. fn
// returning an error stops the replay and returns that error.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Flush buffered records so the read-side sees them.
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	segs, err := l.segments()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	for i, seg := range segs {
		lastSeg := i == len(segs)-1
		err := replaySegment(seg.path, seg.first, lastSeg, from, fn)
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's records through fn.
func replaySegment(path string, first uint64, tolerateTorn bool, from uint64, fn func(uint64, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	lsn := first
	var hdr [headerSize]byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			if tolerateTorn {
				return nil
			}
			return ErrShortRead
		}
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if tolerateTorn && (err == io.EOF || err == io.ErrUnexpectedEOF) {
				return nil
			}
			return ErrShortRead
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if tolerateTorn {
				return nil // torn write inside the final record
			}
			return ErrCorrupt
		}
		if lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
		lsn++
	}
}

// scanSegment validates a segment and returns the number of intact
// records and the byte offset after the last intact record.
func scanSegment(path string) (records uint64, validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return records, validBytes, nil
		}
		if err == io.ErrUnexpectedEOF {
			return records, validBytes, nil // torn header
		}
		if err != nil {
			return 0, 0, fmt.Errorf("wal: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return records, validBytes, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, validBytes, nil // torn/corrupt tail record
		}
		records++
		validBytes += int64(headerSize) + int64(length)
	}
}

// TruncateBefore drops whole segments whose records all have LSN < lsn.
// It never splits a segment, so some records below lsn may survive; the
// caller (storage checkpointing) only relies on "everything >= lsn is
// still present". Buffered appends always belong to the current segment
// (rotation flushes first), which is never dropped, so truncation and
// the group-commit pipeline cannot race over the same file's records —
// at worst a dirty rotated segment is unlinked here and fsynced by a
// leader afterwards, which is harmless.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := l.segments()
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		// A segment is fully below lsn iff the next segment starts at or
		// below lsn (segment i spans [first_i, first_{i+1}-1]).
		if segs[i+1].first <= lsn {
			if err := os.Remove(segs[i].path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.firstLSN = segs[i+1].first
		} else {
			break
		}
	}
	return nil
}

// Close flushes, syncs, and closes the log. It takes the group-commit
// lock so it can never close a file out from under an in-flight round.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	flushErr := l.flushLocked()
	l.closed = true
	cur := l.cur
	dirty := l.dirty
	l.dirty = nil
	target := l.nextLSN - 1
	if l.prealloc != nil {
		l.prealloc.Close()
		os.Remove(l.preallocPath)
		l.prealloc, l.preallocPath = nil, ""
	}
	l.mu.Unlock()
	// The prealloc goroutine only touches l.mu; with closed set it will
	// discard its file. Wait so no tmp outlives Close.
	l.preallocWG.Wait()

	firstErr := flushErr
	for _, f := range dirty {
		if !l.opts.NoSync && firstErr == nil {
			if err := f.Sync(); err != nil {
				firstErr = fmt.Errorf("wal: %w", err)
			} else {
				l.stats.Fsyncs.Add(1)
			}
		}
		f.Close()
	}
	if !l.opts.NoSync && firstErr == nil {
		if err := cur.Sync(); err != nil {
			firstErr = fmt.Errorf("wal: %w", err)
		} else {
			l.stats.Fsyncs.Add(1)
		}
	}
	if err := cur.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("wal: %w", err)
	}
	if firstErr == nil {
		l.durable.Store(target) // under syncMu, like a leader round
	}
	return firstErr
}

package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"avdb/internal/metrics"
)

// frame encodes one record exactly as the log writes it.
func frame(payload string) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE([]byte(payload)))
	return append(hdr[:], payload...)
}

// lastSegPath returns the path of the highest-numbered segment.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[0]
	for _, s := range segs[1:] {
		if s > last {
			last = s
		}
	}
	return filepath.Join(dir, last)
}

func TestGroupCommitSingleFsyncCoversBatch(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	const n = 100
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := l.Append([]byte("batched record"))
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if d := l.DurableLSN(); d != 0 {
		t.Fatalf("DurableLSN before any sync = %d, want 0", d)
	}
	if err := l.SyncTo(last); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if got := st.Fsyncs.Load(); got != 1 {
		t.Fatalf("Fsyncs = %d, want 1 (one group commit for %d records)", got, n)
	}
	if got := st.RecordsSynced.Load(); got != n {
		t.Fatalf("RecordsSynced = %d, want %d", got, n)
	}
	if got := st.SyncRounds.Load(); got != 1 {
		t.Fatalf("SyncRounds = %d, want 1", got)
	}
	if d := l.DurableLSN(); d != last {
		t.Fatalf("DurableLSN = %d, want %d", d, last)
	}
	// A covered SyncTo is free: no new round, no new fsync.
	if err := l.SyncTo(1); err != nil {
		t.Fatal(err)
	}
	if got := st.Fsyncs.Load(); got != 1 {
		t.Fatalf("covered SyncTo issued an fsync (total %d)", got)
	}
}

func TestGroupSizeHistogramObserves(t *testing.T) {
	stats := &Stats{GroupSize: metrics.NewHistogram(), SyncWait: metrics.NewHistogram()}
	l, _ := openTemp(t, Options{Stats: stats})
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if stats.GroupSize.Count() != 1 {
		t.Fatalf("GroupSize samples = %d, want 1", stats.GroupSize.Count())
	}
	if got := stats.GroupSize.Max(); got != time.Duration(10) {
		t.Fatalf("GroupSize sample = %d, want 10", got)
	}
	if stats.SyncWait.Count() == 0 {
		t.Fatal("SyncWait recorded nothing")
	}
}

func TestConcurrentSyncToSharesFsyncs(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := l.Append([]byte("durable op"))
				if err != nil {
					errs <- err
					return
				}
				if err := l.SyncTo(lsn); err != nil {
					errs <- err
					return
				}
				if l.DurableLSN() < lsn {
					errs <- fmt.Errorf("SyncTo(%d) returned with DurableLSN %d", lsn, l.DurableLSN())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(goroutines * perG)
	st := l.Stats()
	if got := st.RecordsSynced.Load(); got != total {
		t.Fatalf("RecordsSynced = %d, want %d", got, total)
	}
	if l.DurableLSN() != uint64(total) {
		t.Fatalf("DurableLSN = %d, want %d", l.DurableLSN(), total)
	}
	// The whole point: concurrent waiters share fsyncs. Requiring every
	// op to have paid its own would mean 400 perfectly serialized rounds.
	if got := st.Fsyncs.Load(); got >= total {
		t.Fatalf("Fsyncs = %d for %d ops: group commit amortized nothing", got, total)
	}
	t.Logf("%d ops, %d fsyncs (%.2f fsyncs/op)", total, st.Fsyncs.Load(),
		float64(st.Fsyncs.Load())/float64(total))
}

func TestSyncToUnappendedLSNErrors(t *testing.T) {
	l, _ := openTemp(t, Options{})
	defer l.Close()
	for i := 0; i < 3; i++ {
		l.Append([]byte("x"))
	}
	err := l.SyncTo(99)
	if err == nil {
		t.Fatal("SyncTo beyond the appended tail succeeded")
	}
	if !strings.Contains(err.Error(), "highest appended LSN is 3") {
		t.Fatalf("error = %v", err)
	}
	// The log is still usable afterwards.
	if err := l.SyncTo(3); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDropsUnsyncedBufferedTail models a crash inside a
// group-commit window: records appended but never covered by a round
// exist only in the log's buffer, so recovery must come back with
// exactly the durable prefix.
func TestCrashDropsUnsyncedBufferedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("durable-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SyncTo(5); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("buffered-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon l without Close — the buffered tail is never
	// flushed, exactly like losing power before the next group commit.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 1)
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want the 5 durable ones", len(got))
	}
	if !bytes.Equal(got[5], []byte("durable-5")) {
		t.Fatalf("record 5 = %q", got[5])
	}
	if l2.DurableLSN() != 5 || l2.NextLSN() != 6 {
		t.Fatalf("DurableLSN=%d NextLSN=%d after recovery", l2.DurableLSN(), l2.NextLSN())
	}
}

// TestCrashTornMidGroupCommitBatch simulates the disk dying partway
// through a group-commit flush: one whole record of the batch made it,
// the next is torn. Recovery replays the durable prefix plus the intact
// part of the batch and drops the torn suffix.
func TestCrashTornMidGroupCommitBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		l.Append([]byte("pre-batch"))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Hand-write a torn batch onto the tail: record 4 complete, record 5
	// cut off mid-payload (the single Write of a two-record batch was
	// interrupted).
	batch := frame("batch record 4")
	torn := frame("batch record 5 never finished")
	batch = append(batch, torn[:len(torn)-7]...)
	f, err := os.OpenFile(lastSegPath(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(batch); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// l is abandoned (crashed); recover from disk.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 1)
	if len(got) != 4 {
		t.Fatalf("recovered %d records, want 4 (3 pre-batch + 1 intact from batch)", len(got))
	}
	if !bytes.Equal(got[4], []byte("batch record 4")) {
		t.Fatalf("record 4 = %q", got[4])
	}
	// The torn record's LSN is reissued.
	lsn, err := l2.Append([]byte("rewritten"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("next lsn = %d, want 5", lsn)
	}
}

// TestTruncateBeforeVsBufferedAppends pins the invariant that buffered
// (not yet flushed) records always live in the current segment, which
// TruncateBefore never drops.
func TestTruncateBeforeVsBufferedAppends(t *testing.T) {
	l, _ := openTemp(t, Options{SegmentMaxBytes: 64})
	defer l.Close()
	for i := 1; i <= 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec %04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	// Buffered, unsynced appends; truncation's contract ("everything
	// >= lsn is still present") must hold for them too even though they
	// have not been flushed, let alone fsynced.
	for i := 31; i <= 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec %04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBefore(35); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 35)
	for i := uint64(35); i <= 40; i++ {
		want := fmt.Sprintf("rec %04d", i)
		if string(got[i]) != want {
			t.Fatalf("record %d = %q, want %q (buffered append lost to truncation)", i, got[i], want)
		}
	}
	if err := l.SyncTo(40); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() != 40 {
		t.Fatalf("DurableLSN = %d, want 40", l.DurableLSN())
	}
}

// TestTruncateConcurrentWithGroupCommit churns truncation against
// appends and group commits for race coverage.
func TestTruncateConcurrentWithGroupCommit(t *testing.T) {
	l, _ := openTemp(t, Options{SegmentMaxBytes: 64})
	defer l.Close()
	const goroutines = 4
	const perG = 50
	stop := make(chan struct{})
	truncDone := make(chan struct{})
	go func() {
		defer close(truncDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.TruncateBefore(l.DurableLSN())
			}
		}
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var appendErr error
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := l.Append([]byte("churn record"))
				if err == nil {
					err = l.SyncTo(lsn)
				}
				if err != nil {
					mu.Lock()
					appendErr = err
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-truncDone
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if l.DurableLSN() != goroutines*perG {
		t.Fatalf("DurableLSN = %d, want %d", l.DurableLSN(), goroutines*perG)
	}
}

func TestPreallocatedSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// A stale staging file from a "crash" must not break Open.
	if err := os.WriteFile(filepath.Join(dir, preallocName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, preallocName)); !os.IsNotExist(err) {
		t.Fatal("stale wal-next.tmp survived Open")
	}
	const n = 200
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("prealloc record %04d", i))); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, 1); len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the prealloc goroutine and removes its staging
	// file; only real segments may remain.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), segSuffix) {
			t.Fatalf("unexpected leftover file %q after Close", e.Name())
		}
	}
	l2, err := Open(dir, Options{SegmentMaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 1); len(got) != n {
		t.Fatalf("replayed %d records after reopen, want %d", len(got), n)
	}
}

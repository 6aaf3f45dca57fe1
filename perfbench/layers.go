package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"avdb/internal/avstore"
	"avdb/internal/lockmgr"
	"avdb/internal/storage"
	"avdb/internal/transport/tcpnet"
	"avdb/internal/txn"
	"avdb/internal/wal"
	"avdb/internal/wire"
)

// The in-process layer rows call one layer's public API from
// layerWorkers goroutines, in a temp dir with real fsync, over the
// workload's own keys. The benchmark times each call itself (a span
// around the call); these rows are the only source of allocs/op.
const (
	layerWorkers = 2
	layerRowTime = 400 * time.Millisecond
	layerKeys    = 256
)

// layerRow is one row's result.
type layerRow struct {
	name      string
	usPerOp   float64
	fsyncsOp  float64 // meaningful only when hasFsyncs
	allocsOp  float64
	ops       int
	hasFsyncs bool
}

// rowKeys draws the first layerKeys distinct update keys from the
// workload's first client stream.
func rowKeys(w *workloadSpec, seed uint64) ([]string, error) {
	next, err := w.clients[0].gen(w, clientSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var keys []string
	for i := 0; i < 64*layerKeys && len(keys) < layerKeys; i++ {
		o := next()
		if o.read || seen[o.key] {
			continue
		}
		seen[o.key] = true
		keys = append(keys, o.key)
	}
	return keys, nil
}

// drive runs call from layerWorkers goroutines for layerRowTime and
// returns the mean call time, the number of calls, and heap
// allocations per call (process-wide, so it includes the layer's own
// background goroutines).
func drive(keys []string, call func(worker, i int, key string) error) (usPerOp float64, ops int, allocsOp float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	stop := time.Now().Add(layerRowTime)
	busy := make([]time.Duration, layerWorkers)
	counts := make([]int, layerWorkers)
	errs := make([]error, layerWorkers)
	var wg sync.WaitGroup
	for w := 0; w < layerWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				key := keys[(i*layerWorkers+w)%len(keys)]
				start := time.Now()
				if err := call(w, i, key); err != nil {
					errs[w] = err
					return
				}
				busy[w] += time.Since(start)
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	var total time.Duration
	for w := range busy {
		if errs[w] != nil {
			return 0, 0, 0, errs[w]
		}
		total += busy[w]
		ops += counts[w]
	}
	if ops == 0 {
		return 0, 0, 0, fmt.Errorf("no calls completed")
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(ops), ops, float64(ms1.Mallocs-ms0.Mallocs) / float64(ops), nil
}

// runLayerRows measures every row under dir.
func runLayerRows(dir string, keys []string) ([]layerRow, error) {
	rows := []struct {
		name string
		fn   func(string, []string) (layerRow, error)
	}{
		{"wal.append_sync", walRow},
		{"storage.commit", storageRow},
		{"avstore.consume", avstoreRow},
		{"tcpnet.call", tcpnetRow},
	}
	var out []layerRow
	for _, r := range rows {
		d := filepath.Join(dir, r.name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		row, err := r.fn(d, keys)
		if err != nil {
			return nil, fmt.Errorf("layer row %s: %w", r.name, err)
		}
		row.name = r.name
		out = append(out, row)
	}
	return out, nil
}

// walRow: Append one update-sized record, then SyncTo its LSN.
func walRow(dir string, keys []string) (layerRow, error) {
	st := &wal.Stats{}
	l, err := wal.Open(dir, wal.Options{Stats: st})
	if err != nil {
		return layerRow{}, err
	}
	defer l.Close()
	bufs := make([][]byte, layerWorkers)
	us, ops, allocs, err := drive(keys, func(w, _ int, key string) error {
		bufs[w] = append(append(bufs[w][:0], key...), " -1"...)
		lsn, err := l.Append(bufs[w])
		if err != nil {
			return err
		}
		return l.SyncTo(lsn)
	})
	if err != nil {
		return layerRow{}, err
	}
	return layerRow{usPerOp: us, ops: ops, allocsOp: allocs, hasFsyncs: true,
		fsyncsOp: float64(st.Fsyncs.Load()) / float64(ops)}, nil
}

// storageRow: the replica-shaped batch of a delay update —
// Begin, ApplyDelta, PutMeta (the replication-log row), Commit.
func storageRow(dir string, keys []string) (layerRow, error) {
	st := &wal.Stats{}
	eng, err := storage.Open(storage.Options{Dir: dir, Stats: st})
	if err != nil {
		return layerRow{}, err
	}
	defer eng.Close()
	seed := make([]storage.Op, 0, len(keys))
	for _, k := range keys {
		seed = append(seed, storage.PutOp(storage.Record{Key: k, Amount: stockLimit, Class: storage.Regular}))
	}
	if err := eng.Apply(seed...); err != nil {
		return layerRow{}, err
	}
	base := st.Fsyncs.Load()
	m := txn.NewManager(eng, lockmgr.Options{})
	ctx := context.Background()
	us, ops, allocs, err := drive(keys, func(w, i int, key string) error {
		tx := m.Begin()
		if _, err := tx.ApplyDelta(ctx, key, -1); err != nil {
			tx.Abort()
			return err
		}
		logKey := "bench/log/" + strconv.Itoa(w) + "/" + strconv.Itoa(i)
		if err := tx.PutMeta(logKey, []byte(key)); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	})
	if err != nil {
		return layerRow{}, err
	}
	return layerRow{usPerOp: us, ops: ops, allocsOp: allocs, hasFsyncs: true,
		fsyncsOp: float64(st.Fsyncs.Load()-base) / float64(ops)}, nil
}

// avstoreRow: AcquireUpTo one unit of AV, then Consume it (journaled).
func avstoreRow(dir string, keys []string) (layerRow, error) {
	st := &wal.Stats{}
	s, err := avstore.Open(dir, avstore.Options{Stats: st})
	if err != nil {
		return layerRow{}, err
	}
	defer s.Close()
	for _, k := range keys {
		if err := s.Define(k, stockLimit); err != nil {
			return layerRow{}, err
		}
	}
	base := st.Fsyncs.Load()
	us, ops, allocs, err := drive(keys, func(_, _ int, key string) error {
		n, err := s.AcquireUpTo(key, 1)
		if err != nil {
			return err
		}
		return s.Consume(key, n)
	})
	if err != nil {
		return layerRow{}, err
	}
	return layerRow{usPerOp: us, ops: ops, allocsOp: allocs, hasFsyncs: true,
		fsyncsOp: float64(st.Fsyncs.Load()-base) / float64(ops)}, nil
}

// tcpnetRow: one AVRequest/AVReply round trip between two tcpnet nodes
// on loopback; the handler answers without touching any table.
func tcpnetRow(_ string, keys []string) (layerRow, error) {
	grant := func(_ context.Context, _ wire.SiteID, msg wire.Message) wire.Message {
		if req, ok := msg.(*wire.AVRequest); ok {
			return &wire.AVReply{Key: req.Key, Granted: req.Amount}
		}
		return nil
	}
	ports, err := freePorts(2)
	if err != nil {
		return layerRow{}, err
	}
	a, err := tcpnet.Open(tcpnet.Config{ID: 0, Listen: ports[0], Peers: map[wire.SiteID]string{1: ports[1]}}, grant)
	if err != nil {
		return layerRow{}, err
	}
	defer a.Close()
	b, err := tcpnet.Open(tcpnet.Config{ID: 1, Listen: ports[1], Peers: map[wire.SiteID]string{0: ports[0]}}, grant)
	if err != nil {
		return layerRow{}, err
	}
	defer b.Close()
	ctx := context.Background()
	us, ops, allocs, err := drive(keys, func(_, _ int, key string) error {
		reply, err := a.Call(ctx, 1, &wire.AVRequest{Key: key, Amount: 1})
		if err != nil {
			return err
		}
		if r, ok := reply.(*wire.AVReply); !ok || r.Granted != 1 {
			return fmt.Errorf("unexpected reply %#v", reply)
		}
		return nil
	})
	if err != nil {
		return layerRow{}, err
	}
	return layerRow{usPerOp: us, ops: ops, allocsOp: allocs}, nil
}

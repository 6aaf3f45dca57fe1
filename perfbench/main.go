// Command perfbench is avdb's served-path benchmark. It starts three
// durable avnode processes on loopback, drives them over the line
// protocol from two closed-loop client connections, checks the
// cluster's state after every run, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an
// untraced run. With --trace 1 it holds the per-layer metrics: an
// untraced window, then the same workload on the nodes restarted with
// -admin, read from /metrics and /trace/recent, then in-process rows
// that time single layers. See NOTES.md for what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

var nan = math.NaN()

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	avnode   string
	work     string
}

// warmup runs before every measured window so connections, caches and
// the Go heap settle; its requests still count for the gate.
const warmup = time.Second

// baselineSeconds caps the untraced window of a traced run. That window
// only gives trace.overhead_frac its baseline and the path.* diagnostics
// their untraced latencies, so it need not be as long as the measured
// windows.
const baselineSeconds = 5

// setupRuns is how many fresh clusters an untraced run starts to report
// a median set-up time; the last one is the one measured. The earlier
// clusters' dirs are deleted only with the run's, after the measurement.
const setupRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated requests")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.StringVar(&o.avnode, "avnode", "", "avnode binary built from the tree under test")
	flag.StringVar(&o.work, "work", "", "directory for per-run node dirs and logs")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.avnode == "" || o.work == "" {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one invocation. A failed correctness gate returns a
// result with Correct false and the error; any other failure returns a
// nil result.
func run(o options, w *workloadSpec) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The data filesystem may discard freed blocks at journal commit, and
	// write-back of earlier work lands on later fsyncs. Flush before the
	// run, and flush this run's deletions before returning, so that no run
	// pays for another's disk cleanup.
	syscall.Sync()
	keep := true
	defer func() {
		if keep {
			fmt.Fprintf(os.Stderr, "perfbench: node logs kept in %s\n", dir)
			return
		}
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
		}
		syscall.Sync()
	}()
	b := &bench{o: o, w: w, dir: dir, res: &result{Correct: true, Metrics: make(map[string]metric)}}
	defer b.stop()
	if o.trace == 0 {
		err = b.endToEnd()
	} else {
		err = b.perLayer()
	}
	if err != nil {
		if errors.As(err, new(gateError)) {
			b.res.Correct = false
			return b.res, err
		}
		return nil, err
	}
	keep = false
	return b.res, nil
}

// gateError marks a failed correctness check (as opposed to a harness
// failure).
type gateError struct{ err error }

func (g gateError) Error() string { return g.err.Error() }

// bench is one invocation's state.
type bench struct {
	o   options
	w   *workloadSpec
	dir string
	c   *cluster
	res *result
	// streams are the clients' request streams. Every window of an
	// invocation runs on the same cluster and continues them, so the
	// cluster sees one stream per client.
	streams []func() op
}

func (b *bench) stop() {
	if b.c != nil {
		b.c.kill()
	}
}

func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // the quantity does not occur on this workload
	}
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// startCluster starts a fresh cluster in its own subdirectory and
// returns its set-up time.
func (b *bench) startCluster(i int, traced bool) (*cluster, float64, error) {
	c, err := newCluster(b.o.avnode, filepath.Join(b.dir, fmt.Sprintf("cluster%d", i)), b.w.nodeFlags())
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, 0, err
	}
	c.traced = traced
	d, err := c.start()
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: cluster up in %.2fs\n", d.Seconds())
	return c, d.Seconds(), nil
}

// measured is one load run with its window observations.
type measured struct {
	load          *loadResult
	win           *window
	cpu           []float64 // per node, seconds over the window
	cpuPerSecond  []float64 // all nodes, seconds in each second of the window
	rssMB         float64
	before, after []scrape // traced only
	from, to      time.Time
}

// measure runs warm-up plus one window of load of the given length
// against b.c.
func (b *bench) measure(traced bool, seconds int) (*measured, error) {
	if b.streams == nil {
		var err error
		if b.streams, err = streams(b.w, b.o.seed); err != nil {
			return nil, err
		}
	}
	pids := b.c.pids()
	t0 := time.Now()
	from := t0.Add(warmup)
	to := from.Add(time.Duration(seconds) * time.Second)
	type loadOut struct {
		r   *loadResult
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		r, err := runLoad(b.c, b.w, b.streams, t0, to)
		done <- loadOut{r, err}
	}()
	m := &measured{from: from, to: to}
	// Scrapes and CPU samples run on this goroutine while the clients
	// load the cluster; a failure is reported after the load returns.
	var obsErr error
	var cpu0, cpu1 []float64
	for i := 0; i <= seconds && obsErr == nil; i++ {
		time.Sleep(time.Until(from.Add(time.Duration(i) * time.Second)))
		cpu, err := cpuAll(pids)
		if err != nil {
			obsErr = err
			break
		}
		if i == 0 {
			cpu0 = cpu
			if traced {
				m.before, obsErr = b.c.scrapeAll()
			}
		} else {
			m.cpuPerSecond = append(m.cpuPerSecond, sum(cpu)-sum(cpu1))
		}
		cpu1 = cpu
	}
	out := <-done
	if out.err != nil {
		return nil, out.err
	}
	if obsErr != nil {
		return nil, obsErr
	}
	if traced {
		var err error
		if m.after, err = b.c.scrapeAll(); err != nil {
			return nil, err
		}
	}
	for i := range pids {
		m.cpu = append(m.cpu, cpu1[i]-cpu0[i])
		rss, err := peakRSSMB(pids[i])
		if err != nil {
			return nil, err
		}
		m.rssMB += rss
	}
	m.load = out.r
	m.win = cut(out.r, warmup, warmup+time.Duration(seconds)*time.Second)
	b.res.Attempted += m.win.attempted()
	b.res.Failed += m.win.failed()
	return m, nil
}

// endToEnd is the untraced invocation.
func (b *bench) endToEnd() error {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		c, s, err := b.startCluster(i, false)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		if i < setupRuns-1 {
			c.kill()
			continue
		}
		b.c = c
	}
	b.printStamp()
	m, err := b.measure(false, b.o.seconds)
	if err != nil {
		return err
	}
	restart, err := b.c.gate(b.w, m.load.acked, m.load.unknown, false)
	if err != nil {
		return gateError{err}
	}
	b.printWindow("untraced", m)
	fmt.Printf("setup_s runs=%v median=%.4f restart_s=%.4f\n", setups, median(setups), restart.Seconds())

	sm := m.win.medians(m.cpuPerSecond)
	fmt.Printf("window means: ops/s %.1f update mean %.1fus node CPU/op %.1fus\n",
		float64(m.win.completed())/m.win.seconds, m.win.updates().mean(), sum(m.cpu)*1e6/float64(m.win.completed()))
	fmt.Printf("update p50: %.1fus (median of per-second p50s)\n", sm.updateP50)
	b.set("setup_s", median(setups), "s")
	b.set("ops_per_s", sm.opsPerS, "1/s")
	b.set("update_mean_us", sm.updateMean, "us")
	b.set("node_cpu_us_per_op", sm.cpuPerOp, "us")
	b.set("node_rss_mb", m.rssMB, "MiB")
	n := len(m.win.perSecond)
	for _, r := range []struct{ name, basis string }{
		{"setup_s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"ops_per_s", fmt.Sprintf("median of %d seconds, %d requests", n, m.win.completed())},
		{"update_mean_us", fmt.Sprintf("median of %d per-second means, %d updates", n, len(m.win.updates()))},
		{"node_cpu_us_per_op", fmt.Sprintf("median of %d seconds, %d requests", n, m.win.completed())},
		{"node_rss_mb", "VmHWM of 3 nodes"},
	} {
		fmt.Printf("%-20s %12.4f %-4s (%s)\n", r.name, b.res.Metrics[r.name].Value, b.res.Metrics[r.name].Unit, r.basis)
	}
	return nil
}

// printStamp writes the environment stamp as one line.
func (b *bench) printStamp() {
	st := newStamp(b.o.avnode, b.c.dir, b.c, len(b.w.clients))
	line, _ := json.Marshal(st) // plain struct of strings and ints
	fmt.Printf("stamp %s\n", line)
	fmt.Printf("workload %s seed %d seconds %d trace %d: %s\n", b.w.name, b.o.seed, b.o.seconds, b.o.trace, b.w.why)
}

// printWindow writes every client-side timing of a window with its
// sample count.
func (b *bench) printWindow(label string, m *measured) {
	fmt.Printf("%s window %.1fs: attempted %d completed %d failed %d retried %d ops/s %.1f\n",
		label, m.win.seconds, m.win.attempted(), m.win.completed(), m.win.failed(), m.win.retried(), float64(m.win.completed())/m.win.seconds)
	row := func(name string, d dist) {
		if len(d) == 0 {
			fmt.Printf("  %-10s n=0\n", name)
			return
		}
		fmt.Printf("  %-10s n=%-7d p50=%.1fus p99=%.1fus mean=%.1fus\n", name, len(d), d.pct(50), d.pct(99), d.mean())
	}
	row("update", m.win.updates())
	for k := kind(0); k < numKinds; k++ {
		row(k.String(), m.win.byKind[k])
	}
	fmt.Printf("  per-second completed: %v\n", m.win.perSecond)
	means := make([]string, len(m.win.perSecondUpd))
	for i, d := range m.win.perSecondUpd {
		means[i] = fmt.Sprintf("%.0f", d.mean())
	}
	fmt.Printf("  per-second update mean us: [%s]\n", strings.Join(means, " "))
	if len(m.cpuPerSecond) > 0 {
		cpu := make([]string, len(m.cpuPerSecond))
		for i, c := range m.cpuPerSecond {
			cpu[i] = fmt.Sprintf("%.3f", c)
		}
		fmt.Printf("  per-second node CPU s: [%s]\n", strings.Join(cpu, " "))
	}
	for _, e := range m.win.errs {
		fmt.Printf("  err: %s\n", e)
	}
}

// pathMetrics reports the client-observed latency of each path as
// per-layer diagnostics (0 with n=0 where the path does not occur).
func (b *bench) pathMetrics(win *window) {
	for _, k := range []kind{kindLocal, kindTransfer, kindImmediate, kindRouted, kindRead} {
		d := win.byKind[k]
		b.set("path."+k.String()+"_p50_us", d.pct(50), "us")
		b.set("path."+k.String()+"_n", float64(len(d)), "count")
	}
	b.set("path.read_p99_us", win.byKind[kindRead].pct(99), "us")
	b.set("path.update_p50_us", win.updates().pct(50), "us")
	b.set("path.update_p99_us", win.updates().pct(99), "us")
	b.set("path.failed_frac", float64(win.failed())/float64(win.attempted()), "ratio")
	b.set("path.retried_n", float64(win.retried()), "count")
}

// perLayer is the traced invocation.
func (b *bench) perLayer() error {
	c, _, err := b.startCluster(0, false)
	if err != nil {
		return err
	}
	b.c = c
	b.printStamp()
	plain, err := b.measure(false, min(b.o.seconds, baselineSeconds))
	if err != nil {
		return err
	}
	if _, err := b.c.gate(b.w, plain.load.acked, plain.load.unknown, true); err != nil {
		return gateError{err}
	}
	b.printWindow("untraced", plain)
	fmt.Printf("traced avnode flags: %s\n", b.c.flagString())
	traced, err := b.measure(true, b.o.seconds)
	if err != nil {
		return err
	}
	spans, err := b.c.spansAll()
	if err != nil {
		return err
	}
	plain.load.addAcked(traced.load)
	if _, err := b.c.gate(b.w, plain.load.acked, plain.load.unknown, false); err != nil {
		return gateError{err}
	}
	b.c.kill()
	b.printWindow("traced", traced)

	b.pathMetrics(plain.win)
	b.layerMetrics(plain, traced, newSpanSet(spans, traced.from, traced.to))

	keys, err := rowKeys(b.w, b.o.seed)
	if err != nil {
		return err
	}
	rows, err := runLayerRows(filepath.Join(b.dir, "rows"), keys)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("row %-16s n=%-7d %.2fus/op %.2f allocs/op", r.name, r.ops, r.usPerOp, r.allocsOp)
		b.set(r.name+"_us", r.usPerOp, "us")
		b.set(r.name+"_allocs_per_op", r.allocsOp, "count")
		if r.hasFsyncs {
			fmt.Printf(" %.3f fsyncs/op", r.fsyncsOp)
			b.set(r.name+"_fsyncs_per_op", r.fsyncsOp, "count")
		}
		fmt.Println()
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, b.res.Metrics[n].Value, b.res.Metrics[n].Unit)
	}
	return nil
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

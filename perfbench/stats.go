package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of latencies in microseconds.
type dist []float64

// pct returns the p-th percentile (0..100) by nearest rank, NaN when
// empty.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append(dist(nil), d...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// window is the requests that completed inside one measured interval.
type window struct {
	seconds float64
	byKind  [numKinds]dist
	short   int  // ERR replies for AV that ran short
	updErr  dist // UPDATE attempts answered ERR (aborted ones too) or timed out
	errs    []string
	// perSecond counts completed requests in each whole second of the
	// window, and perSecondUpd holds that second's UPDATE latencies. The
	// end-to-end figures are medians over these seconds, so a stall or a
	// noisy neighbour covering less than half the window moves them
	// little.
	perSecond    []int
	perSecondUpd []dist
}

// cut keeps the samples that ended in [from, to) after the load's start.
func cut(r *loadResult, from, to time.Duration) *window {
	w := &window{seconds: (to - from).Seconds()}
	w.perSecond = make([]int, int(math.Ceil(w.seconds)))
	w.perSecondUpd = make([]dist, len(w.perSecond))
	for _, lg := range r.logs {
		for _, s := range lg.samples {
			if s.endNs < from.Nanoseconds() || s.endNs >= to.Nanoseconds() {
				continue
			}
			sec := (s.endNs - from.Nanoseconds()) / 1e9
			if s.kind.isUpdate() || s.kind == kindRead {
				w.perSecond[sec]++
			}
			if s.kind.isUpdate() {
				w.perSecondUpd[sec] = append(w.perSecondUpd[sec], float64(s.latNs)/1e3)
			}
			w.byKind[s.kind] = append(w.byKind[s.kind], float64(s.latNs)/1e3)
			if s.short {
				w.short++
			}
			if !s.read && (s.kind == kindErr || s.kind == kindTimeout || s.kind == kindAborted) {
				w.updErr = append(w.updErr, float64(s.latNs)/1e3)
			}
		}
		w.errs = append(w.errs, lg.errs...)
	}
	return w
}

// updates is every successful UPDATE of the window.
func (w *window) updates() dist {
	var d dist
	for k := kindLocal; k <= kindRouted; k++ {
		d = append(d, w.byKind[k]...)
	}
	return d
}

// completed counts successful UPDATEs and READs.
func (w *window) completed() int {
	return len(w.updates()) + len(w.byKind[kindRead])
}

// failed counts ERR replies and timeouts; an aborted attempt that was
// sent again is not a failed request.
func (w *window) failed() int {
	return len(w.byKind[kindErr]) + len(w.byKind[kindTimeout])
}

func (w *window) attempted() int { return w.completed() + w.failed() }

// retried counts aborted attempts that were sent again.
func (w *window) retried() int { return len(w.byKind[kindAborted]) }

// median of a small set of values, NaN when empty.
func median(v []float64) float64 { return dist(v).pct(50) }

// secondMedians returns medians over the window's seconds.
type secondMedians struct {
	opsPerS    float64 // completed requests per second
	updateMean float64 // each second's mean UPDATE latency
	updateP50  float64 // each second's UPDATE p50
	cpuPerOp   float64 // each second's node CPU per completed request
}

// medians computes secondMedians; cpuPerSecond[i] is the nodes' CPU
// seconds in second i.
func (w *window) medians(cpuPerSecond []float64) secondMedians {
	var ops, mean, p50, cpu []float64
	for i, n := range w.perSecond {
		ops = append(ops, float64(n))
		if len(w.perSecondUpd[i]) > 0 {
			mean = append(mean, w.perSecondUpd[i].mean())
			p50 = append(p50, w.perSecondUpd[i].pct(50))
		}
		if n > 0 && i < len(cpuPerSecond) {
			cpu = append(cpu, cpuPerSecond[i]*1e6/float64(n))
		}
	}
	return secondMedians{median(ops), median(mean), median(p50), median(cpu)}
}

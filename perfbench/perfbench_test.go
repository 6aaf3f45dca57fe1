package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"avdb/internal/trace"
)

func TestClassifyUpdate(t *testing.T) {
	cases := []struct {
		line      string
		connected int
		want      kind
	}{
		{"OK delay-local token=1:42\n", 1, kindLocal},
		{"OK delay-local", 1, kindLocal},
		{"OK delay-transfer token=0:7", 0, kindTransfer},
		{"OK immediate", 0, kindImmediate},
		{"OK immediate token=1:9", 1, kindImmediate},
		// The token names the replica that served a forwarded update.
		{"OK delay-local token=2:5", 1, kindRouted},
		{"OK delay-transfer token=0:5", 2, kindRouted},
		{"ERR twopc: update aborted: site 0: lockmgr: lock wait timed out", 0, kindErr},
		{"ERR core: insufficient allowable volume: key product-0001", 1, kindErr},
	}
	for _, c := range cases {
		got, err := classifyUpdate(c.line, c.connected)
		if err != nil || got != c.want {
			t.Errorf("classifyUpdate(%q, %d) = %v, %v; want %v", c.line, c.connected, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "OK", "OK sideways", "OK delay-local token=x:1", "OK delay-local token=1", "HELLO"} {
		if _, err := classifyUpdate(bad, 0); err == nil {
			t.Errorf("classifyUpdate(%q) accepted a malformed reply", bad)
		}
	}
}

func TestKindsPartitionReplies(t *testing.T) {
	for k := kind(0); k < numKinds; k++ {
		if k.isUpdate() != (k <= kindRouted) {
			t.Errorf("%v.isUpdate() = %v", k, k.isUpdate())
		}
	}
}

func TestParseValue(t *testing.T) {
	if v, err := parseValue("OK -12\n"); err != nil || v != -12 {
		t.Fatalf("parseValue = %d, %v", v, err)
	}
	if _, err := parseValue("ERR unknown key"); err == nil {
		t.Fatal("parseValue accepted an ERR reply")
	}
}

// TestHistWindowMean recovers a window's histogram mean from two
// cumulative scrapes: on node 0, 10 samples of mean 1000ns, then 30 more
// of mean 2000ns; on node 1, 10 new samples of mean 3000ns.
func TestHistWindowMean(t *testing.T) {
	before := []scrape{{"h_count": 10, "h_mean_ns": 1000}, {"h_count": 0}, {}}
	after := []scrape{{"h_count": 40, "h_mean_ns": 1750}, {"h_count": 10, "h_mean_ns": 3000}, {}}
	sum, count := histSum(before, after, "h", []int{0, 1, 2})
	if count != 40 || sum != 30*2000+10*3000 {
		t.Fatalf("histSum = %v over %v", sum, count)
	}
	if got := histWindowMeanUS(before, after, "h"); got != 2.25 {
		t.Fatalf("histWindowMeanUS = %v, want 2.25", got)
	}
	if got := histWindowMeanUS(after, after, "h"); !math.IsNaN(got) {
		t.Fatalf("histWindowMeanUS over an empty window = %v, want NaN", got)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `# messages
site  kind        count
----  ----------  -----
0     av.request  3
1     av.request  4
1     delta.sync  2

total_messages 9
total_correspondences 5

# counters
wal_fsync_total 12

# histogram update_latency
update_latency_count 4
update_latency_mean_ns 2500
`
	s, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	want := scrape{"msg:av.request": 7, "msg:delta.sync": 2, "total_messages": 9, "total_correspondences": 5,
		"wal_fsync_total": 12, "update_latency_count": 4, "update_latency_mean_ns": 2500}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("%s = %v, want %v", k, s[k], v)
		}
	}
}

func TestCutAndPercentiles(t *testing.T) {
	r := &loadResult{logs: []*clientLog{{samples: []sample{
		{kind: kindLocal, endNs: 500e6, latNs: 1000}, // warm-up: dropped
		{kind: kindLocal, endNs: 1100e6, latNs: 100e3},
		{kind: kindLocal, endNs: 1200e6, latNs: 300e3},
		{kind: kindRead, endNs: 1300e6, latNs: 10e3},
		{kind: kindErr, endNs: 1400e6, latNs: 2e9, short: true},
		{kind: kindErr, endNs: 1500e6, latNs: 5e3, read: true},
		{kind: kindAborted, endNs: 1600e6, latNs: 2e9},
		{kind: kindRouted, endNs: 2100e6, latNs: 200e3},
		{kind: kindLocal, endNs: 3000e6, latNs: 1000}, // after the window: dropped
	}}}}
	w := cut(r, time.Second, 3*time.Second)
	if w.completed() != 4 || w.failed() != 2 || w.attempted() != 6 || w.short != 1 || len(w.updErr) != 2 || w.retried() != 1 {
		t.Fatalf("completed %d failed %d short %d update errors %d retried %d", w.completed(), w.failed(), w.short, len(w.updErr), w.retried())
	}
	if p := w.updates().pct(50); p != 200 {
		t.Fatalf("update p50 = %v, want 200", p)
	}
	if m := w.byKind[kindLocal].mean(); m != 200 {
		t.Fatalf("local mean = %v, want 200", m)
	}
	if len(w.perSecond) != 2 || w.perSecond[0] != 3 || w.perSecond[1] != 1 {
		t.Fatalf("perSecond = %v", w.perSecond)
	}
}

func TestBreakdownAddsUp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	spans := []trace.Span{
		// A delay-transfer update of 500us with a 200us gather.
		{Trace: 1, ID: 10, Name: "update", Start: at(0), End: at(500), Attrs: []trace.Attr{{Key: "path", Val: "delay-transfer"}}},
		{Trace: 1, ID: 11, Parent: 10, Name: "av.gather", Start: at(50), End: at(250)},
		// A failed update is no path's latency.
		{Trace: 3, ID: 30, Name: "update", Start: at(0), End: at(900), Error: "aborted", Attrs: []trace.Attr{{Key: "path", Val: "delay-transfer"}}},
		// A routed update: 400us call, the replica's update takes 150us.
		{Trace: 2, ID: 20, Name: "call.route.update", Start: at(0), End: at(400)},
		{Trace: 2, ID: 21, Parent: 20, Name: "recv.route.update", Start: at(100), End: at(300)},
		{Trace: 2, ID: 22, Parent: 21, Name: "update", Start: at(120), End: at(270), Attrs: []trace.Attr{{Key: "path", Val: "delay-local"}}},
	}
	ss := newSpanSet(spans, t0, at(1000))
	tr := breakdown(kindTransfer, 560, 60, 100, ss)
	if tr.spans != 1 || tr.stage["gather"] != 200 || tr.stage["local"] != 200 || tr.sum() != 560 {
		t.Fatalf("transfer breakdown %+v", tr)
	}
	rt := breakdown(kindRouted, 460, 60, 100, ss)
	if rt.spans != 1 || rt.stage["route"] != 250 || rt.stage["local"] != 50 || rt.sum() != 460 {
		t.Fatalf("routed breakdown %+v", rt)
	}
	// The routed-in update is not a delay-local update of the entry site.
	if lc := breakdown(kindLocal, 100, 60, 100, ss); lc.spans != 0 {
		t.Fatalf("local breakdown joined %d spans", lc.spans)
	}
}

func TestSecondMedians(t *testing.T) {
	w := &window{
		perSecond:    []int{4, 2, 6},
		perSecondUpd: []dist{{100, 300}, {1000, 3000}, {200, 200, 500}},
	}
	sm := w.medians([]float64{0.004, 0.004, 0.003})
	if sm.opsPerS != 4 || sm.updateMean != 300 || sm.updateP50 != 200 || sm.cpuPerOp != 1000 {
		t.Fatalf("medians = %+v", sm)
	}
}

func TestIsAbort(t *testing.T) {
	for line, want := range map[string]bool{
		"ERR twopc: update aborted: site 1: lockmgr: lock wait timed out": true,
		"ERR twopc: update aborted: site 0: transport: call timed out":    true,
		"ERR twopc: committed but base acknowledgement missing":           false,
		"ERR core: insufficient allowable volume: key product-0001":       false,
		"OK immediate": false,
	} {
		if isAbort(line) != want {
			t.Errorf("isAbort(%q) = %v", line, !want)
		}
	}
}

// TestRetailerNeverOversells checks the return rule: whatever the
// interleaving with the maker, who only adds, the retailer's own net
// sales of any key in one stream stay within three quarters of its
// initial stock.
func TestRetailerNeverOversells(t *testing.T) {
	w := workloads["scm"]
	next, err := retailerMix(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	sold := map[string]int64{}
	var returns int
	for i := 0; i < 500_000; i++ {
		o := next()
		if o.read {
			continue
		}
		sold[o.key] -= o.delta
		if o.delta > 0 {
			returns++
		}
		if sold[o.key] > w.initial*3/4 {
			t.Fatalf("op %d: retailer sold %d of %s", i, sold[o.key], o.key)
		}
	}
	if returns == 0 {
		t.Fatal("the return rule never applied")
	}
}

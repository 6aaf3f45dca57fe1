package main

import (
	"fmt"

	"avdb/internal/trace"
)

// Stage names shared by the per-path breakdown: the client-observed
// mean of a path is split into
//
//	reply        line protocol, TCP and client: client mean - server update_latency mean
//	route        the forwarding hop of a routed update (call.route.update - owner's update)
//	gather       av.gather inside the update (AV transfer)
//	2pc          iu.update inside the update (Immediate Update)
//	durable_wait the WAL sync waits of the update's own commits
//	local        the remainder: accelerator check, acquire, apply, append
var stageNames = []string{"reply", "route", "gather", "2pc", "durable_wait", "local"}

// reportedStages are the stages reported as metrics per path: the ones
// that can be nonzero on it on these workloads. reply is the same for
// every path and is reported once, as avnode.reply_us.
var reportedStages = map[kind][]string{
	kindLocal:     {"durable_wait", "local"},
	kindTransfer:  {"gather", "durable_wait", "local"},
	kindImmediate: {"2pc", "local"},
	kindRouted:    {"route", "durable_wait", "local"},
}

// syncWaitsPerDelayUpdate is how many times a delay update waits for a
// log to become durable: once for its storage commit (stock row plus
// replication-log row), once for its AV journal record. durable_wait is
// this many mean wal_sync_wait waits, the mean taken over every wait in
// the cluster during the window.
const syncWaitsPerDelayUpdate = 2

// pathStages is the stage breakdown of one path.
type pathStages struct {
	clientMean float64 // client-observed mean, µs
	serverMean float64 // mean of the sampled server spans, µs
	spans      int     // sampled server spans joined
	stage      map[string]float64
}

// breakdown splits path k's client mean into stages. reply is the
// cluster-wide reply cost and durable the WAL sync wait per update; the
// rest comes from the span sample.
func breakdown(k kind, clientMean, reply, durable float64, ss *spanSet) pathStages {
	p := pathStages{clientMean: clientMean, stage: map[string]float64{"reply": reply}}
	var server, route, gather, twopc float64
	n := 0
	word := map[kind]string{kindLocal: "delay-local", kindTransfer: "delay-transfer", kindImmediate: "immediate"}[k]
	if k == kindRouted {
		// call.route.update at the entry site -> recv.route.update at the
		// replica -> update at the replica.
		for _, call := range ss.byName["call.route.update"] {
			u, ok := routedUpdate(ss, call)
			if !ok || call.Error != "" || u.Error != "" {
				continue
			}
			n++
			server += spanUS(call)
			route += spanUS(call) - spanUS(u)
			gather += ss.childUS(u, "av.gather")
			twopc += ss.childUS(u, "iu.update")
		}
	} else {
		for _, u := range ss.byName["update"] {
			// Routed-in updates are counted under routed; failed ones
			// are not a path's latency.
			if u.Parent != 0 || u.Error != "" || attr(u, "path") != word {
				continue
			}
			n++
			server += spanUS(u)
			gather += ss.childUS(u, "av.gather")
			twopc += ss.childUS(u, "iu.update")
		}
	}
	p.spans = n
	if n == 0 {
		p.serverMean = nan
		for _, s := range stageNames[1:] {
			p.stage[s] = nan
		}
		return p
	}
	f := float64(n)
	p.serverMean = server / f
	p.stage["route"] = route / f
	p.stage["gather"] = gather / f
	p.stage["2pc"] = twopc / f
	// An Immediate Update's durable waits happen inside its 2PC span.
	p.stage["durable_wait"] = durable
	if k == kindImmediate {
		p.stage["durable_wait"] = 0
	}
	p.stage["local"] = p.serverMean - p.stage["route"] - p.stage["gather"] - p.stage["2pc"] - p.stage["durable_wait"]
	return p
}

// routedUpdate finds the replica's update span under a forwarding call.
func routedUpdate(ss *spanSet, call trace.Span) (trace.Span, bool) {
	for _, recv := range ss.children[call.ID] {
		if recv.Name != "recv.route.update" {
			continue
		}
		for _, u := range ss.children[recv.ID] {
			if u.Name == "update" {
				return u, true
			}
		}
	}
	return trace.Span{}, false
}

// sum is the stages' total; it should match the client mean.
func (p pathStages) sum() float64 {
	var t float64
	for _, s := range stageNames {
		t += p.stage[s]
	}
	return t
}

// layerMetrics derives the per-layer metrics from the untraced window
// (plain), the traced window's /metrics deltas and its span sample.
func (b *bench) layerMetrics(plain, tr *measured, ss *spanSet) {
	before, after := tr.before, tr.after
	win := tr.win
	upd := win.updates()
	nUpd := float64(len(upd))
	nOps := float64(win.completed())
	secs := win.seconds

	// avnode and site: the server's update_latency covers every
	// Site.Update, failed ones included; the rest of the client's round
	// trip over the same requests is the line-protocol front.
	serverUS := histWindowMeanUS(before, after, "update_latency")
	reply := append(append(dist(nil), upd...), win.updErr...).mean() - serverUS
	b.set("avnode.reply_us", reply, "us")
	b.set("site.update_us", serverUS, "us")
	forwarded := delta(before, after, "partition_route_forwarded")
	b.set("site.routed_frac", float64(len(win.byKind[kindRouted]))/nUpd, "ratio")
	b.set("site.forwarded_per_op", forwarded/nUpd, "count")
	b.set("site.misroutes", delta(before, after, "partition_misroutes"), "count")

	// core: the accelerator's AV transfers.
	gatherUS, gathers := ss.p50US("av.gather")
	avReqUS, avReqs := ss.p50US("call.av.request")
	b.set("core.transfer_frac", float64(len(win.byKind[kindTransfer]))/nUpd, "ratio")
	b.set("core.gather_us", gatherUS, "us")
	b.set("core.av_requests_per_gather", float64(avReqs)/float64(gathers), "count")
	b.set("core.insufficient_frac", float64(win.short)/float64(win.attempted()), "ratio")

	// twopc: Immediate Update.
	iuUS, _ := ss.p50US("iu.update")
	prepUS, _ := ss.p50US("call.iu.prepare")
	immediates := float64(len(win.byKind[kindImmediate]))
	b.set("twopc.update_us", iuUS, "us")
	b.set("twopc.prepare_call_us", prepUS, "us")
	b.set("twopc.aborts_per_immediate", delta(before, after, "twopc_aborts")/immediates, "count")

	// transport: tcpnet message counts and call latencies.
	routeUS, _ := ss.p50US("call.route.update")
	b.set("transport.msgs_per_op", delta(before, after, "total_messages")/nOps, "count")
	b.set("transport.correspondences_per_update", delta(before, after, "total_correspondences")/nUpd, "count")
	b.set("transport.av_request_call_us", avReqUS, "us")
	b.set("transport.route_call_us", routeUS, "us")

	// wal: both logs of every node (storage WAL and AV journal).
	fsyncs := delta(before, after, "wal_fsync_total")
	waitSum, waits := histSum(before, after, "wal_sync_wait", []int{0, 1, 2})
	b.set("wal.fsyncs_per_op", fsyncs/nUpd, "count")
	b.set("wal.records_per_fsync", delta(before, after, "wal_records_synced_total")/fsyncs, "count")
	b.set("wal.sync_wait_us_per_op", waitSum/1e3/nUpd, "us")
	b.set("wal.sync_waits_per_op", waits/nUpd, "count")
	durable := syncWaitsPerDelayUpdate * waitSum / 1e3 / waits

	// replica, readplane, node.
	b.set("replica.syncs_per_s", delta(before, after, "msg:delta.sync")/secs, "1/s")
	b.set("readplane.lag_us", histWindowMeanUS(before, after, "readplane_lag"), "us")
	b.set("readplane.events_per_op", delta(before, after, "readplane_events_applied")/nOps, "count")
	for i, cpu := range tr.cpu {
		b.set(fmt.Sprintf("node.cpu_us_per_op.s%d", i), cpu*1e6/nOps, "us")
	}

	// trace: cost of tracing and how much of the window the ring kept.
	plainOps := float64(plain.win.completed()) / plain.win.seconds
	b.set("trace.overhead_frac", 1-(nOps/secs)/plainOps, "ratio")
	b.set("trace.spans_dropped", delta(before, after, "trace_spans_dropped"), "count")
	b.set("trace.spans_sampled", float64(ss.totalSpans), "count")

	// Stage breakdown per path.
	fmt.Printf("stages (us; client mean vs sum of stages; %d spans sampled)\n", ss.totalSpans)
	for _, k := range []kind{kindLocal, kindTransfer, kindImmediate, kindRouted} {
		d := win.byKind[k]
		p := breakdown(k, d.mean(), reply, durable, ss)
		prefix := "stage." + k.String() + "."
		b.set(prefix+"client_mean_us", p.clientMean, "us")
		for _, s := range reportedStages[k] {
			b.set(prefix+s+"_us", p.stage[s], "us")
		}
		// How far reply + server span mean misses the client mean: the
		// acceptance is a tenth.
		b.set(prefix+"unaccounted_frac", (p.clientMean-p.sum())/p.clientMean, "ratio")
		if len(d) == 0 {
			continue
		}
		fmt.Printf("  %-9s n=%d spans=%d client=%.1f sum=%.1f", k, len(d), p.spans, p.clientMean, p.sum())
		for _, s := range stageNames {
			fmt.Printf(" %s=%.1f", s, p.stage[s])
		}
		fmt.Println()
	}
}

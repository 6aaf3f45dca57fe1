package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"avdb/internal/partition"
	"avdb/internal/wire"
	"avdb/internal/workload"
)

// hostsOf returns, per key, the sites that store it: all sites under
// full replication, the partition's replica set otherwise (the same map
// every avnode derives from -partitions/-rf).
func hostsOf(w *workloadSpec, keys []string) (func(string) []int, error) {
	if w.partitions == 0 {
		all := []int{0, 1, 2}
		return func(string) []int { return all }, nil
	}
	pm, err := partition.New([]wire.SiteID{0, 1, 2}, w.partitions, w.rf)
	if err != nil {
		return nil, err
	}
	hosts := make(map[string][]int, len(keys))
	for _, k := range keys {
		for _, s := range pm.ReplicasOf(k) {
			hosts[k] = append(hosts[k], int(s))
		}
	}
	return func(k string) []int { return hosts[k] }, nil
}

// quiesce makes each node push its replication backlog to every peer.
func (c *cluster) quiesce() error {
	for _, n := range c.nodes {
		lc, err := dialLine(n.client)
		if err != nil {
			return fmt.Errorf("SYNC site %d: %w", n.id, err)
		}
		line, err := lc.roundTrip("SYNC", 30*time.Second)
		lc.close()
		if err != nil {
			return fmt.Errorf("SYNC site %d: %w", n.id, err)
		}
		if strings.TrimSpace(line) != "OK" {
			return fmt.Errorf("SYNC site %d: %s", n.id, strings.TrimSpace(line))
		}
	}
	return nil
}

// siteView is what one site reports for the keys it hosts.
type siteView struct {
	value map[string]int64
	avail map[string]int64
}

// readSite pipelines READ and AV for every key on one site.
func (c *cluster) readSite(site int, keys []string) (*siteView, error) {
	lc, err := dialLine(c.nodes[site].client)
	if err != nil {
		return nil, err
	}
	defer lc.close()
	cmds := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		cmds = append(cmds, "READ "+k, "AV "+k)
	}
	replies, err := lc.pipeline(cmds, 2*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("read site %d: %w", site, err)
	}
	v := &siteView{value: make(map[string]int64, len(keys)), avail: make(map[string]int64, len(keys))}
	for i, k := range keys {
		val, err := parseValue(replies[2*i])
		if err != nil {
			return nil, fmt.Errorf("site %d READ %s: %w", site, k, err)
		}
		av, err := parseValue(replies[2*i+1])
		if err != nil {
			return nil, fmt.Errorf("site %d AV %s: %w", site, k, err)
		}
		v.value[k], v.avail[k] = val, av
	}
	return v, nil
}

// gateReport is the outcome of one correctness check.
type gateReport struct {
	skipped  int // keys with an update of unknown outcome: value not compared
	problems []string
}

func (g *gateReport) failf(format string, args ...any) {
	if len(g.problems) < 10 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// check quiesces the cluster and verifies, for every catalog key:
//   - every hosting site READs the same value;
//   - that value is the seeded stock plus every acknowledged delta;
//   - the AV the hosting sites hold sums to at most the stock (no mint).
func (c *cluster) check(w *workloadSpec, acked map[string]int64, unknown map[string]bool) (*gateReport, error) {
	if err := c.quiesce(); err != nil {
		return nil, err
	}
	keys := workload.Keys(w.items)
	hosts, err := hostsOf(w, keys)
	if err != nil {
		return nil, err
	}
	perSite := make([][]string, numSites)
	for _, k := range keys {
		for _, s := range hosts(k) {
			perSite[s] = append(perSite[s], k)
		}
	}
	views := make([]*siteView, numSites)
	for s := range perSite {
		if views[s], err = c.readSite(s, perSite[s]); err != nil {
			return nil, err
		}
	}
	g := &gateReport{}
	// The report names the lowest stock and the lowest AV sum; non-regular
	// keys hold no AV, so the latter is over the regular ones.
	nonReg := w.nonRegularCount()
	lowStock, lowAV := int64(math.MaxInt64), int64(math.MaxInt64)
	var lowStockKey, lowAVKey string
	for i, k := range keys {
		hs := hosts(k)
		v0 := views[hs[0]].value[k]
		if v0 < lowStock {
			lowStock, lowStockKey = v0, k
		}
		var avSum int64
		for _, s := range hs {
			if v := views[s].value[k]; v != v0 {
				g.failf("%s: site %d reads %d, site %d reads %d", k, hs[0], v0, s, v)
			}
			if a := views[s].avail[k]; a < 0 {
				g.failf("%s: site %d holds negative AV %d", k, s, a)
			} else {
				avSum += a
			}
		}
		if i >= nonReg && avSum < lowAV {
			lowAV, lowAVKey = avSum, k
		}
		if avSum > v0 {
			g.failf("%s: AV %d across sites exceeds stock %d (minted)", k, avSum, v0)
		}
		if unknown[k] {
			g.skipped++
			continue
		}
		if want := w.initial + acked[k]; v0 != want {
			g.failf("%s: stock %d, want seed %d + acknowledged %d = %d", k, v0, w.initial, acked[k], want)
		}
	}
	sort.Strings(g.problems)
	fmt.Fprintf(os.Stderr, "perfbench: gate checked %d keys (%d with an unknown outcome not compared); lowest stock %d (%s), lowest AV sum %d (%s)\n",
		len(keys), g.skipped, lowStock, lowStockKey, lowAV, lowAVKey)
	return g, nil
}

// gate runs check, SIGKILLs every node, restarts them on the same dirs
// (traced as requested for what follows) and checks again. It returns
// the restart time and an error describing the first failure.
func (c *cluster) gate(w *workloadSpec, acked map[string]int64, unknown map[string]bool, tracedAfter bool) (time.Duration, error) {
	t0 := time.Now()
	defer func() { fmt.Fprintf(os.Stderr, "perfbench: gate took %.1fs\n", time.Since(t0).Seconds()) }()
	g, err := c.check(w, acked, unknown)
	if err != nil {
		return 0, fmt.Errorf("gate before restart: %w", err)
	}
	if len(g.problems) > 0 {
		return 0, fmt.Errorf("gate before restart:\n  %s", strings.Join(g.problems, "\n  "))
	}
	c.kill()
	c.traced = tracedAfter
	restart, err := c.start()
	if err != nil {
		return 0, fmt.Errorf("gate restart: %w", err)
	}
	g, err = c.check(w, acked, unknown)
	if err != nil {
		return 0, fmt.Errorf("gate after restart: %w", err)
	}
	if len(g.problems) > 0 {
		return 0, fmt.Errorf("gate after restart:\n  %s", strings.Join(g.problems, "\n  "))
	}
	return restart, nil
}

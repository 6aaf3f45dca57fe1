package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"avdb/internal/trace"
)

// scrape is one parse of a node's /metrics page: scalar lines
// ("name value") by name, and message counts by kind ("msg:<kind>")
// summed over the sending sites.
type scrape map[string]float64

func parseMetrics(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch len(f) {
		case 2:
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		case 3: // "site kind count" rows of the message table
			if _, err := strconv.Atoi(f[0]); err != nil {
				continue
			}
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out["msg:"+f[1]] += v
			}
		}
	}
	return out, sc.Err()
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func httpGet(url string) (io.ReadCloser, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

// scrapeAll reads /metrics from every node.
func (c *cluster) scrapeAll() ([]scrape, error) {
	out := make([]scrape, numSites)
	for i, n := range c.nodes {
		body, err := httpGet("http://" + n.admin + "/metrics")
		if err != nil {
			return nil, err
		}
		out[i], err = parseMetrics(body)
		body.Close()
		if err != nil {
			return nil, fmt.Errorf("parse /metrics of site %d: %w", i, err)
		}
	}
	return out, nil
}

// spansAll reads every span each node's ring still holds.
func (c *cluster) spansAll() ([]trace.Span, error) {
	var out []trace.Span
	for _, n := range c.nodes {
		body, err := httpGet(fmt.Sprintf("http://%s/trace/recent?n=%d", n.admin, traceBuf))
		if err != nil {
			return nil, err
		}
		spans, err := trace.ReadJSON(body)
		body.Close()
		if err != nil {
			return nil, fmt.Errorf("parse /trace/recent of site %d: %w", n.id, err)
		}
		out = append(out, spans...)
	}
	return out, nil
}

// delta is the window change of a counter summed over nodes.
func delta(before, after []scrape, name string) float64 {
	var d float64
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}

// histSum is the window change of a histogram's total (count × mean)
// summed over the given nodes, and the number of samples it covers.
func histSum(before, after []scrape, name string, nodes []int) (sum, count float64) {
	for _, i := range nodes {
		c0, c1 := before[i][name+"_count"], after[i][name+"_count"]
		m0, m1 := before[i][name+"_mean_ns"], after[i][name+"_mean_ns"]
		sum += c1*m1 - c0*m0
		count += c1 - c0
	}
	return sum, count
}

// histWindowMeanUS is a histogram's mean over the window, across nodes,
// in microseconds (NaN when nothing was observed).
func histWindowMeanUS(before, after []scrape, name string) float64 {
	sum, count := histSum(before, after, name, []int{0, 1, 2})
	if count <= 0 {
		return nan
	}
	return sum / count / 1e3
}

// spanSet indexes a span sample for the stage breakdown.
type spanSet struct {
	byName     map[string][]trace.Span
	children   map[trace.SpanID][]trace.Span
	totalSpans int
}

// newSpanSet keeps the spans that started inside [from, to).
func newSpanSet(spans []trace.Span, from, to time.Time) *spanSet {
	s := &spanSet{
		byName:   make(map[string][]trace.Span),
		children: make(map[trace.SpanID][]trace.Span),
	}
	for _, sp := range spans {
		if sp.Start.Before(from) || !sp.Start.Before(to) || sp.End.IsZero() {
			continue
		}
		s.totalSpans++
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		if sp.Parent != 0 {
			s.children[sp.Parent] = append(s.children[sp.Parent], sp)
		}
	}
	return s
}

func spanUS(sp trace.Span) float64 { return float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3 }

// p50US is the median duration of the named spans.
func (s *spanSet) p50US(name string) (float64, int) {
	var d dist
	for _, sp := range s.byName[name] {
		d = append(d, spanUS(sp))
	}
	return d.pct(50), len(d)
}

// childUS sums the durations of sp's direct children with the given
// name (a gather or a 2PC inside an update).
func (s *spanSet) childUS(sp trace.Span, name string) float64 {
	var t float64
	for _, ch := range s.children[sp.ID] {
		if ch.Name == name {
			t += spanUS(ch)
		}
	}
	return t
}

func attr(sp trace.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

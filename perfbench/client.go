package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// kind classifies one completed request or aborted attempt. Every
// reply lands in exactly one kind, so the counts of the kinds other
// than kindAborted add up to the requests attempted.
type kind uint8

const (
	kindLocal     kind = iota // OK delay-local, served where the client is connected
	kindTransfer              // OK delay-transfer, served where the client is connected
	kindImmediate             // OK immediate (2PC), served where the client is connected
	kindRouted                // OK update whose token names another site
	kindRead                  // OK value for a READ
	kindErr                   // ERR reply
	kindTimeout               // no reply before the deadline: outcome unknown
	// kindAborted is an attempt whose Immediate Update aborted; the
	// client sent the request again, so the request ends in another kind.
	kindAborted
	numKinds
)

var kindNames = [numKinds]string{"local", "transfer", "immediate", "routed", "read", "err", "timeout", "aborted"}

func (k kind) String() string { return kindNames[k] }

// isUpdate reports whether k is a successful UPDATE.
func (k kind) isUpdate() bool { return k <= kindRouted }

// classifyUpdate maps an UPDATE reply line to its kind, given the site
// the client is connected to. Replies look like
//
//	OK delay-local token=1:42
//	OK immediate
//	ERR <reason>
//
// A reply whose token names another site was forwarded to a replica,
// and counts as routed whatever path the replica took.
func classifyUpdate(line string, connected int) (kind, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return kindErr, fmt.Errorf("empty reply")
	}
	if fields[0] == "ERR" {
		return kindErr, nil
	}
	if fields[0] != "OK" || len(fields) < 2 {
		return kindErr, fmt.Errorf("malformed update reply %q", line)
	}
	for _, f := range fields[2:] {
		tok, ok := strings.CutPrefix(f, "token=")
		if !ok {
			continue
		}
		site, _, ok := strings.Cut(tok, ":")
		if !ok {
			return kindErr, fmt.Errorf("malformed token in %q", line)
		}
		s, err := strconv.Atoi(site)
		if err != nil {
			return kindErr, fmt.Errorf("malformed token site in %q", line)
		}
		if s != connected {
			return kindRouted, nil
		}
	}
	switch fields[1] {
	case "delay-local":
		return kindLocal, nil
	case "delay-transfer":
		return kindTransfer, nil
	case "immediate":
		return kindImmediate, nil
	}
	return kindErr, fmt.Errorf("unknown path in %q", line)
}

// parseValue reads the integer of an "OK <n>" reply (READ, AV).
func parseValue(line string) (int64, error) {
	v, ok := strings.CutPrefix(strings.TrimSpace(line), "OK ")
	if !ok {
		return 0, fmt.Errorf("reply %q", strings.TrimSpace(line))
	}
	return strconv.ParseInt(v, 10, 64)
}

// lineConn is one line-protocol connection.
type lineConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialLine(addr string) (*lineConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &lineConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// roundTrip sends one command and returns its reply line.
func (c *lineConn) roundTrip(cmd string, timeout time.Duration) (string, error) {
	if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return "", err
	}
	if _, err := c.w.WriteString(cmd); err != nil {
		return "", err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.r.ReadString('\n')
}

// pipeline sends every command, then reads the replies in order; the
// server answers one connection's commands in sequence.
func (c *lineConn) pipeline(cmds []string, timeout time.Duration) ([]string, error) {
	if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	errc := make(chan error, 1)
	go func() {
		for _, cmd := range cmds {
			if _, err := c.w.WriteString(cmd + "\n"); err != nil {
				errc <- err
				return
			}
		}
		errc <- c.w.Flush()
	}()
	out := make([]string, 0, len(cmds))
	var rerr error
	for range cmds {
		line, err := c.r.ReadString('\n')
		if err != nil {
			rerr = err
			break
		}
		out = append(out, strings.TrimSpace(line))
	}
	if rerr != nil {
		c.conn.Close() // unblocks the writer
		<-errc
		return nil, rerr
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	return out, nil
}

func (c *lineConn) close() { c.conn.Close() }

// sample is one completed request or aborted attempt: what it was and
// when it ended, relative to the load's start.
type sample struct {
	kind  kind
	read  bool // a READ; an ERR or timeout is otherwise an UPDATE's
	short bool // ERR because AV ran short (core: insufficient allowable volume)
	endNs int64
	latNs int64
}

// clientLog is everything one client saw.
type clientLog struct {
	samples []sample
	acked   map[string]int64 // key -> sum of acknowledged deltas
	unknown map[string]bool  // keys with an update of unknown outcome
	errs    []string         // first few ERR replies, for the report
}

// requestTimeout exceeds avnode's own 5 s per-request context, so a
// slow reply is reported by the node as ERR before the client gives up.
const requestTimeout = 10 * time.Second

// maxAttempts bounds how often one UPDATE is sent when its Immediate
// Update aborts; the last abort counts as a failed request.
const maxAttempts = 4

// isAbort reports whether an UPDATE reply is an aborted Immediate
// Update (twopc.ErrAborted), which applied nothing at any site. Two
// coordinators that lock the same non-regular key each wait for the
// other's prepare until it times out, and both abort.
func isAbort(line string) bool {
	return strings.HasPrefix(line, "ERR twopc: update aborted")
}

// runClient drives one closed-loop connection until stopAt: send a
// request, wait for its reply, record it, repeat.
// After an abort it waits attempt×backoff before the next send; the
// clients get different backoffs so two that aborted each other do not
// collide again.
func runClient(addr string, site int, backoff time.Duration, next func() op, t0, stopAt time.Time) (*clientLog, error) {
	lg := &clientLog{acked: make(map[string]int64), unknown: make(map[string]bool)}
	lg.samples = make([]sample, 0, 1<<16)
	c, err := dialLine(addr)
	if err != nil {
		return nil, fmt.Errorf("client on site %d: %w", site, err)
	}
	defer func() { c.close() }()
	var cmd []byte
	for time.Now().Before(stopAt) {
		o := next()
		cmd = cmd[:0]
		if o.read {
			cmd = append(cmd, "READ "...)
			cmd = append(cmd, o.key...)
		} else {
			cmd = append(cmd, "UPDATE "...)
			cmd = append(cmd, o.key...)
			cmd = append(cmd, ' ')
			cmd = strconv.AppendInt(cmd, o.delta, 10)
		}
		start := time.Now()
		line, err := c.roundTrip(string(cmd), requestTimeout)
		// An aborted Immediate Update applied nothing, so the client
		// sends it again, as an application would. Each aborted attempt
		// is a sample of its own, as the server's update_latency counts
		// it too.
		for attempt := 1; err == nil && attempt < maxAttempts && isAbort(line); attempt++ {
			end := time.Now()
			lg.samples = append(lg.samples, sample{kind: kindAborted, endNs: end.Sub(t0).Nanoseconds(), latNs: end.Sub(start).Nanoseconds()})
			if len(lg.errs) < 5 {
				lg.errs = append(lg.errs, fmt.Sprintf("%s -> %s (sent again)", cmd, strings.TrimSpace(line)))
			}
			time.Sleep(time.Duration(attempt) * backoff)
			start = time.Now()
			line, err = c.roundTrip(string(cmd), requestTimeout)
		}
		end := time.Now()
		k := kindRead
		switch {
		case err != nil:
			// The connection's state is unknown: count the request as
			// failed, mark its key, and reconnect.
			k = kindTimeout
			if !o.read {
				lg.unknown[o.key] = true
			}
			c.close()
			if c, err = dialLine(addr); err != nil {
				return nil, fmt.Errorf("client on site %d: reconnect: %w", site, err)
			}
		case o.read:
			if _, perr := parseValue(line); perr != nil {
				k = kindErr
			}
		default:
			var cerr error
			if k, cerr = classifyUpdate(line, site); cerr != nil {
				return nil, fmt.Errorf("client on site %d: %w", site, cerr)
			}
			if k.isUpdate() {
				lg.acked[o.key] += o.delta
			}
		}
		if k == kindErr && len(lg.errs) < 5 {
			lg.errs = append(lg.errs, fmt.Sprintf("%s -> %s", cmd, strings.TrimSpace(line)))
		}
		lg.samples = append(lg.samples, sample{
			kind:  k,
			read:  o.read,
			short: k == kindErr && strings.Contains(line, "insufficient allowable volume"),
			endNs: end.Sub(t0).Nanoseconds(),
			latNs: end.Sub(start).Nanoseconds(),
		})
	}
	return lg, nil
}

// loadResult merges the clients of one load run.
type loadResult struct {
	logs    []*clientLog
	acked   map[string]int64
	unknown map[string]bool
}

// retryBackoff is client i's wait, times i, before it resends an
// aborted update.
const retryBackoff = 20 * time.Millisecond

// streams builds each client's request stream from the run seed.
func streams(w *workloadSpec, seed uint64) ([]func() op, error) {
	out := make([]func() op, len(w.clients))
	for i, cs := range w.clients {
		next, err := cs.gen(w, clientSeed(seed, i))
		if err != nil {
			return nil, err
		}
		out[i] = next
	}
	return out, nil
}

// runLoad starts one client per spec, all at t0, each sending from its
// stream, and returns when all have stopped at stopAt. A later load on
// the same cluster continues the same streams.
func runLoad(c *cluster, w *workloadSpec, streams []func() op, t0, stopAt time.Time) (*loadResult, error) {
	logs := make([]*clientLog, len(w.clients))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for i, cs := range w.clients {
		next := streams[i]
		wg.Add(1)
		go func(i int, cs clientSpec, next func() op) {
			defer wg.Done()
			logs[i], errs[i] = runClient(c.nodes[cs.site].client, cs.site, time.Duration(i)*retryBackoff, next, t0, stopAt)
		}(i, cs, next)
	}
	wg.Wait()
	res := &loadResult{acked: make(map[string]int64), unknown: make(map[string]bool)}
	for i := range logs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.logs = append(res.logs, logs[i])
		for k, d := range logs[i].acked {
			res.acked[k] += d
		}
		for k := range logs[i].unknown {
			res.unknown[k] = true
		}
	}
	return res, nil
}

// addAcked folds a later load's acknowledged deltas into r.
func (r *loadResult) addAcked(o *loadResult) {
	for k, d := range o.acked {
		r.acked[k] += d
	}
	for k := range o.unknown {
		r.unknown[k] = true
	}
}

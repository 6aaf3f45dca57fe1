// Package memnet is an in-process implementation of transport.Network.
// Messages are really encoded and decoded through the wire codec (so
// every test exercises the protocol bytes), delivered through channels,
// and optionally subjected to deterministic latency, probabilistic drops,
// partitions and site crashes. memnet also records every message into a
// metrics.Registry, attributing both directions of an exchange to the
// *initiating* site — the attribution the paper uses for Table 1 ("number
// of correspondences for update in each site").
package memnet

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"avdb/internal/clock"
	"avdb/internal/metrics"
	"avdb/internal/trace"
	"avdb/internal/wire"

	"avdb/internal/transport"
)

// Options configure a Net.
type Options struct {
	// Latency returns the one-way delivery delay from -> to. Nil means
	// instantaneous delivery (the default for counting experiments).
	Latency func(from, to wire.SiteID) time.Duration
	// Drop returns true if this message should be lost. Nil never drops.
	Drop func(from, to wire.SiteID, msg wire.Message) bool
	// Registry receives message counts. Nil disables counting.
	Registry *metrics.Registry
	// Tracer records send/recv spans for every Call/Send and propagates
	// trace context through envelopes. All in-process sites share it
	// (spans carry the site ID). Nil disables tracing.
	Tracer *trace.Tracer
	// QueueLen is the inbox depth per node (default 1024).
	QueueLen int
	// CallTimeout bounds Call when the caller's context has no deadline
	// (default 5s).
	CallTimeout time.Duration
	// Interceptor, when non-nil, is consulted for every envelope put on
	// the wire (requests, one-way sends, and replies) and may drop, delay,
	// or duplicate it — the seam the chaos package plugs into. Unlike
	// Drop, interceptor-dropped messages are lost silently mid-flight: a
	// Call observes a timeout, not an error.
	Interceptor transport.Interceptor
	// RetransmitInterval, when > 0, makes Call re-send its request (same
	// envelope seq) at this interval until the reply arrives or the
	// context expires. Receivers dedup on (from, seq) and replay the
	// original reply, so retransmission is safe for non-idempotent
	// handlers. Off by default: the healthy-path experiments count every
	// message, and retransmission must not perturb them.
	RetransmitInterval time.Duration
	// Clock drives delayed delivery, the Call timeout fallback and
	// retransmission. Nil means the real clock. The deterministic
	// simulator passes a *clock.Virtual here so that every transport
	// timer fires under the simulator's control.
	Clock clock.Clock
}

// Net is an in-process network. The zero value is not usable; call New.
type Net struct {
	opts Options

	mu        sync.RWMutex
	nodes     map[wire.SiteID]*node
	blocked   map[[2]wire.SiteID]bool
	crashed   map[wire.SiteID]bool
	opens     uint64 // total Opens ever, for per-open seq epochs
	deliverWG sync.WaitGroup

	// act counts network activity: every scheduled delivery holds one
	// token from the moment it is put on the wire until the receiver has
	// fully processed it (reply matched, duplicate absorbed, or handler
	// finished). Settle blocks until act reaches zero — the quiescence
	// point the deterministic simulator advances virtual time at.
	actMu   sync.Mutex
	act     int
	actCond *sync.Cond
}

// New creates an empty network.
func New(opts Options) *Net {
	if opts.QueueLen <= 0 {
		opts.QueueLen = 1024
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 5 * time.Second
	}
	n := &Net{
		opts:    opts,
		nodes:   make(map[wire.SiteID]*node),
		blocked: make(map[[2]wire.SiteID]bool),
		crashed: make(map[wire.SiteID]bool),
	}
	n.actCond = sync.NewCond(&n.actMu)
	return n
}

// actAdd takes k activity tokens (k may be negative to release).
func (n *Net) actAdd(k int) {
	n.actMu.Lock()
	n.act += k
	if n.act == 0 {
		n.actCond.Broadcast()
	}
	n.actMu.Unlock()
}

// actDone releases one activity token.
func (n *Net) actDone() { n.actAdd(-1) }

// Settle blocks until no message is in flight and no inbound request is
// still being handled. Handlers never make nested network calls and only
// ever block on bounded real-time lock waits, so Settle always returns
// in bounded real time; once it does, the only way the cluster can make
// further progress is a timer firing — which is exactly when the
// simulator advances its virtual clock.
func (n *Net) Settle() {
	n.actMu.Lock()
	for n.act != 0 {
		n.actCond.Wait()
	}
	n.actMu.Unlock()
}

// Activity returns the current number of in-flight messages and
// still-running inbound handlers. The simulator's partitioned-mode
// scheduler polls this instead of blocking in Settle: a routed update
// runs inside a handler that may park on a deadline only a virtual-clock
// advance can pass, so full settle (act == 0) may be unreachable while
// a stable nonzero activity level is the real fixpoint.
func (n *Net) Activity() int {
	n.actMu.Lock()
	defer n.actMu.Unlock()
	return n.act
}

// Open implements transport.Network.
func (n *Net) Open(id wire.SiteID, handler transport.Handler) (transport.Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("memnet: site %d already open", id)
	}
	n.opens++
	nd := &node{
		net:     n,
		id:      id,
		handler: handler,
		inbox:   make(chan []byte, n.opts.QueueLen),
		pending: make(map[uint64]chan wire.Message),
		dedup:   transport.NewDeduper(0),
		done:    make(chan struct{}),
		// Seqs start at a per-open epoch so a site closed and reopened
		// (crash-restart) never reuses seqs its peers may still have in
		// their dedup caches.
		seq: n.opens << 32,
	}
	n.nodes[id] = nd
	nd.wg.Add(1)
	go nd.loop()
	return nd, nil
}

// Block makes traffic between a and b (both directions) disappear.
func (n *Net) Block(a, b wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]wire.SiteID{a, b}] = true
	n.blocked[[2]wire.SiteID{b, a}] = true
}

// Unblock restores traffic between a and b.
func (n *Net) Unblock(a, b wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]wire.SiteID{a, b})
	delete(n.blocked, [2]wire.SiteID{b, a})
}

// Isolate blocks traffic between id and every other currently open site —
// a single-site partition.
func (n *Net) Isolate(id wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		if other != id {
			n.blocked[[2]wire.SiteID{id, other}] = true
			n.blocked[[2]wire.SiteID{other, id}] = true
		}
	}
}

// Heal removes every partition.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]wire.SiteID]bool)
}

// Crash makes a site drop all inbound and outbound traffic until Restart.
// The node stays open (its goroutine keeps running) — this models a hung
// or unreachable process, not a clean shutdown.
func (n *Net) Crash(id wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart undoes Crash.
func (n *Net) Restart(id wire.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// reachable reports whether a message from -> to would currently be
// delivered, ignoring probabilistic drops.
func (n *Net) reachable(from, to wire.SiteID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed[from] || n.crashed[to] {
		return false
	}
	if n.blocked[[2]wire.SiteID{from, to}] {
		return false
	}
	_, ok := n.nodes[to]
	return ok
}

// count attributes one message to the exchange's initiator: the sender
// for requests, the destination for replies.
func (n *Net) count(env *wire.Envelope) {
	if n.opts.Registry == nil {
		return
	}
	site := env.From
	if env.IsReply {
		site = env.To
	}
	n.opts.Registry.Counter(int(site), env.Msg.Kind().String()).Inc()
}

// send encodes and routes one envelope. It returns transport.ErrUnreachable
// if the destination is partitioned, crashed or absent. The message is
// counted when it is put on the wire, even if later dropped.
func (n *Net) send(env *wire.Envelope) error {
	if !n.reachable(env.From, env.To) {
		return transport.ErrUnreachable
	}
	n.count(env)
	if n.opts.Drop != nil && n.opts.Drop(env.From, env.To, env.Msg) {
		return nil // silently lost
	}
	var fault transport.Fault
	if n.opts.Interceptor != nil {
		fault = n.opts.Interceptor.Intercept(env.From, env.To, env.IsReply, env.Msg.Kind())
		if fault.Drop {
			return nil // silently lost mid-flight
		}
	}
	raw := wire.EncodeEnvelope(env)
	deliver := func() {
		defer n.deliverWG.Done()
		n.mu.RLock()
		dst, ok := n.nodes[env.To]
		crashed := n.crashed[env.To]
		n.mu.RUnlock()
		if !ok || crashed {
			n.actDone()
			return
		}
		select {
		case dst.inbox <- raw:
			// The activity token travels with the queued frame; the
			// receiver's loop releases it once processing completes.
		case <-dst.done:
			n.actDone()
		}
	}
	copies := 1
	if fault.Duplicate {
		copies = 2
	}
	d := fault.Delay
	if n.opts.Latency != nil {
		d += n.opts.Latency(env.From, env.To)
	}
	for i := 0; i < copies; i++ {
		n.deliverWG.Add(1)
		n.actAdd(1)
		if d <= 0 {
			deliver()
		} else {
			t := clock.NewTimer(n.opts.Clock, d)
			go func() {
				<-t.C
				deliver()
			}()
		}
	}
	return nil
}

// Quiesce blocks until every in-flight delivery has been handed to its
// destination inbox. It does not wait for handlers to finish processing.
func (n *Net) Quiesce() { n.deliverWG.Wait() }

// node is one site's endpoint.
type node struct {
	net     *Net
	id      wire.SiteID
	handler transport.Handler
	inbox   chan []byte
	dedup   *transport.Deduper
	done    chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan wire.Message
	closed  bool
}

// ID implements transport.Node.
func (nd *node) ID() wire.SiteID { return nd.id }

// loop dispatches inbound envelopes: replies are matched to pending
// calls; requests are handled in their own goroutine so a slow handler
// (for example a 2PC participant waiting on a lock) cannot stall the
// node's reply matching.
func (nd *node) loop() {
	defer nd.wg.Done()
	for {
		select {
		case <-nd.done:
			return
		case raw := <-nd.inbox:
			env, err := wire.DecodeEnvelope(raw)
			if err != nil {
				nd.net.actDone()
				continue // corrupt frame: drop, as a real transport would
			}
			if env.IsReply {
				nd.mu.Lock()
				ch := nd.pending[env.Seq]
				delete(nd.pending, env.Seq)
				nd.mu.Unlock()
				if ch != nil {
					// The activity token travels with the reply: the waiting
					// call releases it only after stopping its retransmit and
					// timeout timers, so a settled network never has a dead
					// timer still pending on a virtual clock.
					ch <- env.Msg
				} else {
					nd.net.actDone()
				}
				continue
			}
			// Idempotent receive: a duplicate of a request we already
			// served replays the recorded reply without re-running the
			// handler; a duplicate still in flight is dropped (the
			// retransmitting caller will try again).
			run, replay := nd.dedup.Begin(env.From, env.Seq)
			if !run {
				if replay != nil {
					if out, err := wire.DecodeEnvelope(replay); err == nil {
						_ = nd.net.send(out)
					}
				}
				nd.net.actDone()
				continue
			}
			go func() {
				nd.serve(env)
				nd.net.actDone()
			}()
		}
	}
}

// serve runs the handler for one request and sends back its reply. The
// envelope's trace context (if any) is planted in the handler's context
// and a recv span brackets the handler, so work done here parents back
// to the remote caller's span.
func (nd *node) serve(env *wire.Envelope) {
	ctx := context.Background()
	if env.TraceID != 0 {
		ctx = trace.ContextWith(ctx, trace.SpanContext{
			Trace: trace.TraceID(env.TraceID), Span: trace.SpanID(env.SpanID)})
	}
	ctx, sp := nd.net.opts.Tracer.Start(ctx, nd.id, "recv."+env.Msg.Kind().String())
	if sp != nil {
		sp.SetAttr("from", strconv.Itoa(int(env.From)))
	}
	reply := nd.handler(ctx, env.From, env.Msg)
	sp.EndSpan()
	if reply == nil {
		nd.dedup.Finish(env.From, env.Seq, nil)
		return
	}
	out := &wire.Envelope{
		From:    nd.id,
		To:      env.From,
		Seq:     env.Seq,
		IsReply: true,
		Msg:     reply,
	}
	// The reply carries the same trace so the caller's transport (and
	// any tap between) can attribute it; its parent is the recv span.
	if sc := trace.FromContext(ctx); sc.Valid() {
		out.TraceID, out.SpanID = uint64(sc.Trace), uint64(sc.Span)
	}
	nd.dedup.Finish(env.From, env.Seq, wire.EncodeEnvelope(out))
	_ = nd.net.send(out)
}

// Call implements transport.Node.
func (nd *node) Call(ctx context.Context, to wire.SiteID, req wire.Message) (wire.Message, error) {
	ctx, sp := nd.span(ctx, to, "call.", req)
	reply, err := nd.call(ctx, to, req)
	sp.Finish(err)
	return reply, err
}

// call is Call without the tracing wrapper.
func (nd *node) call(ctx context.Context, to wire.SiteID, req wire.Message) (wire.Message, error) {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil, transport.ErrClosed
	}
	nd.seq++
	seq := nd.seq
	ch := make(chan wire.Message, 1)
	nd.pending[seq] = ch
	nd.mu.Unlock()

	// A matched reply arrives carrying its activity token; release it
	// last, after the deferred timer stops below have run, so the network
	// only reads as settled once this call's virtual timers are gone.
	replyToken := false
	defer func() {
		if replyToken {
			nd.net.actDone()
		}
	}()

	// unregister withdraws seq and reports whether it was still pending;
	// false means the node's loop already claimed it, so a reply (and its
	// token) is in ch or about to be.
	unregister := func() bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if _, ok := nd.pending[seq]; !ok {
			return false
		}
		delete(nd.pending, seq)
		return true
	}

	env := nd.envelope(ctx, to, seq, req)
	err := nd.net.send(env)
	if err != nil {
		unregister()
		return nil, err
	}

	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = clock.WithTimeout(ctx, nd.net.opts.Clock, nd.net.opts.CallTimeout)
		defer cancel()
	}
	// With retransmission enabled, re-send the same envelope (same seq)
	// on an interval: the receiver dedups and replays its reply, so a
	// dropped request or dropped reply heals within the Call window.
	// Timers are stoppable so a completed call leaves nothing pending on
	// a virtual clock.
	var retransmit *clock.Timer
	if nd.net.opts.RetransmitInterval > 0 {
		retransmit = clock.NewTimer(nd.net.opts.Clock, nd.net.opts.RetransmitInterval)
	}
	defer func() {
		if retransmit != nil {
			retransmit.Stop()
		}
	}()
	retransmitC := func() <-chan time.Time {
		if retransmit == nil {
			return nil
		}
		return retransmit.C
	}
	for {
		select {
		case reply := <-ch:
			replyToken = true
			return reply, nil
		case <-retransmitC():
			// A reply may already be buffered when the tick fires; take
			// it instead of re-sending, so whether a resend happens (and
			// consumes fault-injector randomness) depends only on whether
			// the reply had actually arrived, never on goroutine timing.
			select {
			case reply := <-ch:
				replyToken = true
				return reply, nil
			default:
			}
			_ = nd.net.send(env) // best effort; the next tick tries again
			retransmit = clock.NewTimer(nd.net.opts.Clock, nd.net.opts.RetransmitInterval)
		case <-ctx.Done():
			select {
			case reply := <-ch:
				replyToken = true
				return reply, nil
			default:
			}
			if !unregister() {
				// The loop claimed seq just as the deadline fired: the
				// reply won; wait out its (non-blocking, buffered) arrival.
				reply := <-ch
				replyToken = true
				return reply, nil
			}
			if clock.IsTimeout(ctx) {
				return nil, transport.ErrTimeout
			}
			return nil, ctx.Err()
		case <-nd.done:
			if !unregister() {
				reply := <-ch
				replyToken = true
				return reply, nil
			}
			return nil, transport.ErrClosed
		}
	}
}

// Send implements transport.Node.
func (nd *node) Send(ctx context.Context, to wire.SiteID, msg wire.Message) error {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return transport.ErrClosed
	}
	nd.seq++
	seq := nd.seq
	nd.mu.Unlock()
	ctx, sp := nd.span(ctx, to, "send.", msg)
	err := nd.net.send(nd.envelope(ctx, to, seq, msg))
	sp.Finish(err)
	return err
}

// span starts a send-side transport span for msg when tracing is on.
func (nd *node) span(ctx context.Context, to wire.SiteID, prefix string, msg wire.Message) (context.Context, *trace.Span) {
	ctx, sp := nd.net.opts.Tracer.Start(ctx, nd.id, prefix+msg.Kind().String())
	if sp != nil {
		sp.SetAttr("peer", strconv.Itoa(int(to)))
	}
	return ctx, sp
}

// envelope builds an outbound request envelope carrying ctx's trace
// context, if any.
func (nd *node) envelope(ctx context.Context, to wire.SiteID, seq uint64, msg wire.Message) *wire.Envelope {
	env := &wire.Envelope{From: nd.id, To: to, Seq: seq, Msg: msg}
	if nd.net.opts.Tracer.Enabled() {
		if sc := trace.FromContext(ctx); sc.Valid() {
			env.TraceID, env.SpanID = uint64(sc.Trace), uint64(sc.Span)
		}
	}
	return env
}

// Close implements transport.Node.
func (nd *node) Close() error {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil
	}
	nd.closed = true
	nd.mu.Unlock()
	close(nd.done)
	nd.wg.Wait()
	nd.net.mu.Lock()
	delete(nd.net.nodes, nd.id)
	nd.net.mu.Unlock()
	// Release the activity tokens of frames that were queued but never
	// processed, so a crashed site cannot wedge Settle.
	for {
		select {
		case <-nd.inbox:
			nd.net.actDone()
		default:
			return nil
		}
	}
}

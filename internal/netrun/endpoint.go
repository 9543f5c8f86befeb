package netrun

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq/internal/wire"
)

// Endpoint is the serving side of the wire protocol. Every listener
// that reads JobRequest frames — the TCP worker (Worker) and the
// daemon's wire front (internal/server) — reads them here. An endpoint
// owns accept, the registry of open connections, one read buffer per
// connection under wire.MaxRequestFrame, the classification of every
// frame by its tag, per-Seq cancels (CancelRequest), the reply writer
// with its write deadline, and teardown. What a job request means is
// its Handler's business: the worker runs the partition it names, the
// daemon answers it from its plan cache or queues it.
type Endpoint struct {
	newHandler   func(*Conn) Handler
	writeTimeout time.Duration

	wg       sync.WaitGroup // the accept loop and every connection
	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool // Drain began: read sides close, owed replies still go out
	closed   bool // Close began: connections close outright
}

// Handler serves the job requests of one connection.
type Handler interface {
	// Request takes one JobRequest payload, on the connection's reader
	// goroutine and in arrival order. The payload's storage is reused
	// for the next frame once Request returns. Returning false stops
	// reading the connection.
	Request(payload []byte) bool
	// Close runs once, after the reader stops and — unless the endpoint
	// is draining — after the connection's context is canceled. It
	// returns when every reply the handler owes is written or dropped.
	Close()
}

// ErrCanceled is the cause (context.Cause) of a request context that a
// CancelRequest frame for the request's Seq canceled.
var ErrCanceled = errors.New(wire.CanceledMsg)

// NewEndpoint returns an endpoint serving no connection yet. newHandler
// builds each connection's handler; writeTimeout bounds every reply
// write.
func NewEndpoint(writeTimeout time.Duration, newHandler func(*Conn) Handler) *Endpoint {
	return &Endpoint{newHandler: newHandler, writeTimeout: writeTimeout, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln in the background until Drain or
// Close closes it.
func (e *Endpoint) Serve(ln net.Listener) {
	e.ln = ln
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.ServeConn(conn)
		}
	}()
}

// Addr returns the listener's address, or "" before Serve.
func (e *Endpoint) Addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// ServeConn serves one connection in the background; once Drain or
// Close has begun it closes the connection instead.
func (e *Endpoint) ServeConn(conn net.Conn) {
	e.mu.Lock()
	if e.draining || e.closed {
		e.mu.Unlock()
		conn.Close()
		return
	}
	e.conns[conn] = struct{}{}
	e.wg.Add(1)
	e.mu.Unlock()
	go e.serve(conn)
}

// Drain stops accepting and closes the read side of every connection:
// no new request is read, and the replies already owed are still
// written before each connection closes. It returns at once; Wait
// waits for the connections to end.
func (e *Endpoint) Drain() {
	conns, _ := e.stop(&e.draining)
	for _, c := range conns {
		if hc, ok := c.(interface{ CloseRead() error }); ok {
			hc.CloseRead()
		} else {
			c.Close()
		}
	}
}

// Close stops accepting, closes every connection outright — canceling
// the work in flight on each, unless a drain began — and waits for all
// of them to unwind.
func (e *Endpoint) Close() error {
	conns, err := e.stop(&e.closed)
	for _, c := range conns {
		c.Close()
	}
	e.Wait()
	return err
}

// Wait waits for the accept loop and every connection to end.
func (e *Endpoint) Wait() { e.wg.Wait() }

// stop sets one of the endpoint's stop flags, closes the listener and
// returns the open connections.
func (e *Endpoint) stop(flag *bool) ([]net.Conn, error) {
	e.mu.Lock()
	*flag = true
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	if e.ln == nil {
		return conns, nil
	}
	return conns, e.ln.Close()
}

// serve reads one connection's frames until the peer hangs up, a reply
// write fails, a drain half-closes the read side or the handler stops.
// The reader runs no job itself: a cancel frame is read, and acts,
// while the request it names computes.
func (e *Endpoint) serve(conn net.Conn) {
	defer e.wg.Done()
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow connection-lifetime root; teardown is cancel/conn.Close, and Close closes every tracked conn
	c := &Conn{conn: conn, ctx: ctx, cancel: cancel, writeTimeout: e.writeTimeout,
		seqs: seqCancels{live: map[uint32]context.CancelCauseFunc{}, canceled: map[uint32]bool{}}}
	h := e.newHandler(c)
	defer func() {
		e.mu.Lock()
		draining := e.draining
		e.mu.Unlock()
		if !draining {
			cancel() // the peer is gone: its work in flight has no reader
		}
		h.Close()
		cancel()
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReader(conn) // one for the conn's life: frames read ahead stay buffered
	var buf []byte              // the frame buffer, reused frame to frame
	for {
		payload, err := wire.ReadFrameInto(br, buf, wire.MaxRequestFrame)
		if err != nil {
			return // EOF, reset, drain half-close, or a length prefix no request has
		}
		buf = payload
		if !c.dispatch(h, payload) {
			return
		}
	}
}

// Conn is one served connection, as its Handler sees it.
type Conn struct {
	conn         net.Conn
	ctx          context.Context
	cancel       context.CancelFunc
	writeTimeout time.Duration
	writeMu      sync.Mutex
	seqs         seqCancels
}

// dispatch routes one frame by its tag and reports whether to keep
// reading. The switch is exhaustive over wire.Tag: the tagswitch
// analyzer fails the lint when a new tag constant is added without a
// serving-path decision here.
func (c *Conn) dispatch(h Handler, payload []byte) bool {
	tag, err := wire.MessageTag(payload)
	if err != nil {
		c.Refuse(payload, fmt.Sprintf("decode: %v", err))
		return true
	}
	switch tag {
	case wire.TagJobRequest:
		return h.Request(payload)
	case wire.TagCancelRequest:
		if cr, err := wire.DecodeCancelRequest(payload); err == nil {
			c.seqs.cancel(cr.Seq) // never answered: the request's own reply acknowledges it
		}
	case wire.TagQuery, wire.TagPlan:
		c.Refuse(payload, "bare query/plan frames are serialization records, not requests")
	case wire.TagJobResponse, wire.TagWorkerError:
		c.Refuse(payload, "response frames flow server-to-client only")
	default:
		c.Refuse(payload, "unknown message tag")
	}
	return true
}

// Context is the connection's context: canceled when the peer hangs up,
// a reply write fails or the endpoint closes — not by a drain.
func (c *Conn) Context() context.Context { return c.ctx }

// RemoteAddr is the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// Begin registers request seq as in flight and returns its context: a
// child of parent that a CancelRequest for seq cancels with cause
// ErrCanceled — at once if the cancel arrived first. stop marks the
// request answered, so a later cancel for it is stale, and releases
// the context.
func (c *Conn) Begin(parent context.Context, seq uint32) (ctx context.Context, stop context.CancelFunc) {
	return c.seqs.begin(parent, seq)
}

// Reply writes one whole frame (wire.WriteFramed), or drops it once the
// connection is gone: nobody is left to read it. Writes are serialized
// and each is bounded by the endpoint's write timeout. A peer that
// stops reading fails the write, which tears the connection down, so
// the replies queued behind it drop at once and no writer is wedged
// behind a dead peer.
func (c *Conn) Reply(frame []byte) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.ctx.Err() != nil {
		return
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	if err := wire.WriteFramed(c.conn, frame); err != nil {
		// A full teardown: the closed conn unblocks the reader too.
		c.cancel()
		c.conn.Close()
	}
}

// Refuse answers a frame that cannot be served with ErrBadRequest and
// the reason. The reply echoes the frame's Seq, recovered best-effort
// (0 when unreadable, which masters accept for any job).
func (c *Conn) Refuse(payload []byte, reason string) {
	c.Reply(wire.WorkerErrorFrame(&wire.WorkerError{
		Seq: wire.PeekJobRequestSeq(payload), Code: wire.ErrBadRequest, Msg: reason,
	}))
}

// maxEarlyCancels bounds the cancels a connection remembers ahead of
// their requests, against a bad peer.
const maxEarlyCancels = 1024

// seqCancels routes CancelRequest frames, read on a connection's reader
// goroutine, to that connection's requests in flight: begun and not yet
// ended, any number at once. A cancel can run ahead of its request's
// begin — peers number requests from 1 up, so a cancel for a Seq above
// every one begun is remembered and applied the moment that request
// begins. A cancel for any other Seq not in flight is stale (a
// speculative loser that finished just before its cancel arrived) and
// is dropped: remembered, stale cancels would fill the bounded set and
// crowd out a real early one.
type seqCancels struct {
	mu       sync.Mutex
	last     uint32                             // the highest Seq begun
	live     map[uint32]context.CancelCauseFunc // requests in flight
	canceled map[uint32]bool                    // cancels ahead of their request
}

// begin registers the request about to run and returns its context,
// pre-canceled if its cancel arrived first, and the stop that ends it.
// Remembered cancels at or below the highest Seq begun can no longer
// meet their request and are dropped.
func (s *seqCancels) begin(parent context.Context, seq uint32) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	s.mu.Lock()
	s.last = max(s.last, seq)
	if s.canceled[seq] {
		cancel(ErrCanceled)
	}
	for k := range s.canceled {
		if k <= s.last {
			delete(s.canceled, k)
		}
	}
	s.live[seq] = cancel
	s.mu.Unlock()
	return ctx, func() {
		s.end(seq)
		cancel(nil)
	}
}

// end marks request seq finished; later cancels for it are stale.
func (s *seqCancels) end(seq uint32) {
	s.mu.Lock()
	delete(s.live, seq)
	s.mu.Unlock()
}

// cancel aborts request seq: at once if it is in flight, on arrival if
// it has not begun yet.
func (s *seqCancels) cancel(seq uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stop, ok := s.live[seq]; ok {
		stop(ErrCanceled)
	} else if seq > s.last && len(s.canceled) < maxEarlyCancels {
		s.canceled[seq] = true
	}
}

package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq"
	"mpq/internal/wire"
)

// Client is a wire-protocol client for a resident daemon. It implements
// mpq.Engine over a single TCP connection, pipelining concurrent
// requests and matching the daemon's completion-order responses back to
// callers by Seq — so a cheap query never waits behind an expensive one
// submitted earlier on the same connection.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex // serializes frame writes

	mu      sync.Mutex // guards seq, pending, err
	seq     uint32
	pending map[uint32]chan clientReply
	err     error // terminal connection error, fails all future calls

	readerDone chan struct{}
}

// clientReply is one decoded response frame.
type clientReply struct {
	resp *wire.JobResponse
	werr *wire.WorkerError
}

// writeTimeout caps one request-frame send even when the caller's
// context has no (or a distant) deadline: frames are small, so a write
// this slow means the daemon has stalled and the connection is dead.
// cancelWriteTimeout caps the cancel frame an abandoned call sends: its
// caller has already given up, so it waits for no stalled daemon.
const (
	writeTimeout       = 30 * time.Second
	cancelWriteTimeout = 2 * time.Second
)

// Dial connects to a daemon's wire listener.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:       conn,
		pending:    map[uint32]chan clientReply{},
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop delivers response frames to their waiting callers. On a
// connection error it fails every pending and future call.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn) // the conn's only reader, for its whole life
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		tag, err := wire.MessageTag(payload)
		if err != nil {
			c.fail(fmt.Errorf("server: bad frame: %w", err))
			return
		}
		var seq uint32
		var reply clientReply
		switch tag {
		case wire.TagJobResponse:
			resp, err := wire.DecodeJobResponse(payload)
			if err != nil {
				c.fail(fmt.Errorf("server: decode response: %w", err))
				return
			}
			seq, reply = resp.Seq, clientReply{resp: resp}
		case wire.TagWorkerError:
			we, err := wire.DecodeWorkerError(payload)
			if err != nil {
				c.fail(fmt.Errorf("server: decode error frame: %w", err))
				return
			}
			seq, reply = we.Seq, clientReply{werr: we}
		default:
			c.fail(fmt.Errorf("server: unexpected frame tag %d", tag))
			return
		}
		c.mu.Lock()
		ch := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- reply // buffered
		}
	}
}

// fail marks the connection dead and wakes every pending caller.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = map[uint32]chan clientReply{}
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch) // a closed channel signals "connection failed"
	}
}

// Optimize sends one request and waits for its reply. It satisfies
// mpq.Engine: answers carry the same plans — same fingerprints — the
// daemon's engine produced. If ctx ends first, Optimize returns its
// error and cancels the request on the daemon.
func (c *Client) Optimize(ctx context.Context, q *mpq.Query, spec mpq.JobSpec) (*mpq.Answer, error) {
	start := time.Now()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	seq := c.seq
	ch := make(chan clientReply, 1)
	c.pending[seq] = ch
	c.mu.Unlock()

	// Bound the send so a stalled daemon (full socket buffer) cannot
	// pin writeMu — and with it every concurrent Optimize on this
	// connection — indefinitely: use the context deadline, capped at
	// writeTimeout.
	deadline := time.Now().Add(writeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.send(wire.JobRequestFrame(&wire.JobRequest{Seq: seq, Spec: spec, Query: q}), deadline); err != nil {
		return nil, err
	}

	select {
	case reply, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, err
		}
		return buildClientAnswer(reply, spec, time.Since(start))
	case <-ctx.Done():
		c.abandon(seq)
		return nil, ctx.Err()
	}
}

// send writes one whole frame by the deadline. A failed or timed-out
// write may have left a partial frame on the stream; the connection is
// no longer framed, so it fails for every caller rather than letting
// the next send desync.
func (c *Client) send(frame []byte, deadline time.Time) error {
	c.writeMu.Lock()
	c.conn.SetWriteDeadline(deadline)
	err := wire.WriteFramed(c.conn, frame)
	c.conn.SetWriteDeadline(time.Time{})
	c.writeMu.Unlock()
	if err != nil {
		err = fmt.Errorf("server: send: %w", err)
		c.fail(err)
		c.conn.Close()
	}
	return err
}

// abandon forgets a request whose caller gave up and, unless its reply
// already came, sends the daemon a CancelRequest for its Seq: the
// daemon stops the request, queued or running, and a late reply is
// dropped by the read loop.
func (c *Client) abandon(seq uint32) {
	c.mu.Lock()
	_, waiting := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	if waiting {
		c.send(wire.CancelRequestFrame(&wire.CancelRequest{Seq: seq}), time.Now().Add(cancelWriteTimeout))
	}
}

// buildClientAnswer reconstructs an mpq.Answer from a reply frame. The
// daemon sends its chosen Best explicitly as Plans[0] (the frontier
// follows for multi-objective jobs), so the client never re-derives the
// best-plan tie-break — near-tied cost lines cannot make the daemon
// engine's Best diverge from the in-process engine's.
func buildClientAnswer(reply clientReply, spec mpq.JobSpec, elapsed time.Duration) (*mpq.Answer, error) {
	if we := reply.werr; we != nil {
		if we.Code == wire.ErrOverloaded {
			return nil, fmt.Errorf("%w: %s", ErrOverloaded, we.Msg)
		}
		return nil, fmt.Errorf("server: remote: %s", we.Msg)
	}
	resp := reply.resp
	if len(resp.Plans) == 0 {
		return nil, errors.New("server: remote returned no plans")
	}
	ans := &mpq.Answer{Best: resp.Plans[0], Stats: resp.Stats, Elapsed: elapsed}
	if spec.Objective.HasFrontier() && len(resp.Plans) > 1 {
		ans.Frontier = resp.Plans[1:]
	}
	return ans, nil
}

// OptimizeBatch pipelines the jobs over the connection concurrently —
// the daemon interleaves them under its fairness scheduler and replies
// in completion order — and collects the answers back in input order.
// Matching the Engine contract, the first failure fails the batch at
// once, abandoning the jobs still waiting: the daemon is sent a cancel
// for each.
func (c *Client) OptimizeBatch(ctx context.Context, jobs []mpq.Job) ([]*mpq.Answer, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	answers := make([]*mpq.Answer, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if answers[i], err = c.Optimize(ctx, jobs[i].Query, jobs[i].Spec); err != nil {
				cancel(fmt.Errorf("batch job %d: %w", i, err))
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return answers, nil
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

package netrun

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq/internal/wire"
)

// Client is the requesting side of the wire protocol, the one client
// both the master (one per worker connection) and the daemon's client
// (internal/server) run. It pipelines requests over one connection: any
// number may await their replies at once, one read loop matches each
// reply to its request by Seq, and one mutex serializes the frames
// written. A request whose caller gives up is abandoned: the peer gets
// a CancelRequest for its Seq, and a late reply is a stray.
type Client struct {
	conn    net.Conn
	writeMu sync.Mutex // serializes frame writes

	mu      sync.Mutex // guards seq, pending, err, stray
	seq     uint32
	pending map[uint32]chan Reply
	err     error                       // terminal connection error: fails every pending and later call
	stray   func(seq uint32, bytes int) // see reportStrays

	done chan struct{} // closed when the read loop exits
}

// Reply is one reply frame: a response, or the peer's WorkerError, and
// the frame's size on the wire, length prefix included.
type Reply struct {
	Resp   *wire.JobResponse
	Remote *wire.WorkerError
	bytes  int
}

// Call is one request on the wire: its Seq, its frame's size on the
// wire, and where its reply lands.
type Call struct {
	Seq  uint32
	sent int
	ch   chan Reply
}

// frameError is the connection error of a frame that arrived whole but
// is no reply the client can read; bytes is its size on the wire.
type frameError struct {
	bytes int
	err   error
}

func (e *frameError) Error() string { return e.err.Error() }
func (e *frameError) Unwrap() error { return e.err }

// writeTimeout caps one request write: frames are small, so a write
// this slow means the peer has stalled and the connection is dead.
// cancelWriteTimeout caps a CancelRequest write: whoever sends it has
// stopped waiting for the answer, so it waits for no stalled peer.
const (
	writeTimeout       = 30 * time.Second
	cancelWriteTimeout = 2 * time.Second
)

// NewClient starts the client's read loop on conn.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: map[uint32]chan Reply{}, done: make(chan struct{})}
	go c.readLoop()
	return c
}

// reportStrays has f see every well-formed reply no pending request
// takes — a duplicate, an abandoned request's late reply, a Seq never
// sent — with its Seq and size on the wire, from the read loop. nil,
// the default, drops them.
func (c *Client) reportStrays(f func(seq uint32, bytes int)) {
	c.mu.Lock()
	c.stray = f
	c.mu.Unlock()
}

// readLoop delivers reply frames to their requests until the connection
// fails, then fails every pending and later call and closes the
// connection: a client whose peer hung up holds no goroutine and no
// socket.
func (c *Client) readLoop() {
	defer close(c.done)
	defer c.conn.Close()
	br := bufio.NewReader(c.conn) // the conn's only reader, for its whole life
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("netrun: connection lost: %w", err))
			return
		}
		r := Reply{bytes: len(payload) + 4}
		seq, err := r.decode(payload)
		if err != nil {
			c.fail(&frameError{bytes: r.bytes, err: fmt.Errorf("netrun: bad reply: %w", err)})
			return
		}
		c.mu.Lock()
		if seq == 0 && r.Remote != nil && len(c.pending) > 0 {
			// The peer could not read a request's Seq. With one request
			// pending, the refusal is that request's; with more, which
			// one it refused is unknown, and that one would wait for an
			// answer forever: the connection fails, every call with it.
			if len(c.pending) > 1 {
				c.mu.Unlock()
				c.fail(&frameError{bytes: r.bytes, err: fmt.Errorf("netrun: refused, Seq unknown: %w", r.Remote)})
				return
			}
			for s := range c.pending {
				seq = s
			}
		}
		ch, ok := c.pending[seq]
		delete(c.pending, seq)
		stray := c.stray
		c.mu.Unlock()
		switch {
		case ok:
			ch <- r // buffered
		case stray != nil:
			stray(seq, r.bytes)
		}
	}
}

// decode reads a reply payload into r and returns the Seq it answers.
func (r *Reply) decode(payload []byte) (uint32, error) {
	tag, err := wire.MessageTag(payload)
	if err != nil {
		return 0, err
	}
	switch tag {
	case wire.TagJobResponse:
		if r.Resp, err = wire.DecodeJobResponse(payload); err == nil {
			return r.Resp.Seq, nil
		}
	case wire.TagWorkerError:
		if r.Remote, err = wire.DecodeWorkerError(payload); err == nil {
			return r.Remote.Seq, nil
		}
	default:
		return 0, fmt.Errorf("netrun: unexpected reply tag %d", tag)
	}
	return 0, err
}

// fail marks the connection dead and wakes every pending call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = nil // Send admits nothing once err is set
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch) // a closed channel signals "connection failed"
	}
}

// failed is the error that ended the connection, nil while it lives.
func (c *Client) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Send writes req under the client's next Seq (it sets req.Seq) and
// returns the call to Wait on. A ctx that has already ended sends
// nothing; ctx bounds the wait, not the write.
func (c *Client) Send(ctx context.Context, req *wire.JobRequest) (Call, error) {
	if err := ctx.Err(); err != nil {
		return Call{}, err
	}
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		return Call{}, err
	}
	c.seq++
	req.Seq = c.seq
	call := Call{Seq: c.seq, ch: make(chan Reply, 1)}
	c.pending[call.Seq] = call.ch
	c.mu.Unlock()

	frame := wire.JobRequestFrame(req)
	call.sent = len(frame)
	if err := c.send(frame, writeTimeout); err != nil {
		return Call{}, err // the connection failed, and its pending calls with it
	}
	return call, nil
}

// Wait waits for call's reply: a response or the peer's WorkerError, or
// the error that ended the connection first. If ctx ends first, Wait
// returns ctx's error and the call stays pending: its caller abandons
// it (Abandon) or closes the client.
func (c *Client) Wait(ctx context.Context, call Call) (Reply, error) {
	select {
	case r, ok := <-call.ch:
		if !ok {
			return Reply{}, c.failed()
		}
		return r, nil
	case <-ctx.Done():
		return Reply{}, ctx.Err()
	}
}

// send writes one whole frame within limit. A failed write may have
// left part of a frame on the stream, and a peer that took no frame for
// that long has stalled: either way the connection fails for every
// call. A caller's deadline never bounds a write, so it fails only its
// own call.
func (c *Client) send(frame []byte, limit time.Duration) error {
	c.writeMu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(limit))
	_, err := c.conn.Write(frame)
	c.writeMu.Unlock()
	if err != nil {
		err = fmt.Errorf("netrun: send: %w", err)
		c.fail(err)
		c.conn.Close()
	}
	return err
}

// Cancel asks the peer to stop request seq and keeps waiting for its
// reply: the peer answers ErrCanceled, or sends the reply it already
// had. It sends nothing once the reply came, and returns the bytes it
// wrote.
func (c *Client) Cancel(seq uint32) int { return c.cancel(seq, false) }

// Abandon forgets request seq and, unless its reply already came, asks
// the peer to stop it; a late reply is then a stray.
func (c *Client) Abandon(seq uint32) { c.cancel(seq, true) }

func (c *Client) cancel(seq uint32, forget bool) int {
	c.mu.Lock()
	_, waiting := c.pending[seq]
	if forget {
		delete(c.pending, seq)
	}
	c.mu.Unlock()
	if !waiting {
		return 0
	}
	frame := wire.CancelRequestFrame(&wire.CancelRequest{Seq: seq})
	if c.send(frame, cancelWriteTimeout) != nil {
		return 0
	}
	return len(frame)
}

// Close tears down the connection: pending calls fail, and the read
// loop has exited when Close returns.
func (c *Client) Close() error {
	c.conn.Close() // or the read loop did, when the connection failed
	<-c.done
	return nil
}

package netrun

import (
	"context"
	"fmt"
	"net"
	"time"

	"mpq/internal/core"
	"mpq/internal/wire"
)

// workerWriteTimeout bounds one reply write on a worker connection. It
// is the daemon's default wire write timeout: a master that stops
// reading loses its connection within it, not the worker's executor.
const workerWriteTimeout = 10 * time.Second

// ListenWorker starts a TCP optimization worker on addr (e.g.
// "127.0.0.1:0") and begins accepting connections in the background.
// Each connection runs its jobs one at a time, in arrival order (a
// worker node optimizes one partition at a time, like one Spark
// executor). A master that disconnects, or cancels a request's Seq,
// aborts that work between cardinality levels; Close aborts it all.
func ListenWorker(addr string) (*Endpoint, error) {
	return listenWorker(addr, workerWriteTimeout)
}

func listenWorker(addr string, writeTimeout time.Duration) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrun: listen: %w", err)
	}
	ep := NewEndpoint(writeTimeout, newWorkerConn)
	ep.Serve(ln)
	return ep, nil
}

// workerConn runs one connection's jobs one at a time, in arrival
// order, each on its own goroutine so that the reader goes on reading
// cancel frames while it computes. The reader decodes each request —
// its frame buffer is reused — and begins it before handing it over.
type workerConn struct {
	c    *Conn
	idle chan struct{} // holds a token while no job runs
}

func newWorkerConn(c *Conn) Handler {
	w := &workerConn{c: c, idle: make(chan struct{}, 1)}
	w.idle <- struct{}{}
	return w
}

func (w *workerConn) Request(payload []byte) bool {
	req, err := wire.DecodeJobRequest(payload)
	if err != nil {
		// The master validates jobs before sending, so the request was
		// damaged in transit: ErrBadRequest, which re-dispatch can help.
		w.c.Refuse(payload, fmt.Sprintf("decode: %v", err))
		return true
	}
	select {
	case <-w.idle: // the job before it has answered
	case <-w.c.Context().Done():
		return false
	}
	ctx, stop := w.c.Begin(w.c.Context(), req.Seq)
	go func() {
		frame := workerReply(ctx, req)
		stop()
		w.c.Reply(frame)
		w.idle <- struct{}{}
	}()
	return true
}

// Close waits for the job in flight to answer.
func (w *workerConn) Close() { <-w.idle }

// workerReply runs one job and returns its whole reply frame (length
// prefix included). A deterministic job failure is an explicit
// ErrJobFailed frame: every worker would fail identically. A job whose
// context ended first gets the ErrCanceled acknowledgment: either a
// CancelRequest for its Seq canceled it, and the master still reading
// the connection needs a frame to resynchronize, or the connection is
// gone and Reply drops the frame. Every reply echoes the request's Seq
// so the master can discard duplicated or stale frames.
func workerReply(ctx context.Context, req *wire.JobRequest) []byte {
	res, err := core.RunWorkerContext(ctx, req.Query, req.Spec, req.PartID)
	switch {
	case err == nil:
		return wire.JobResponseFrame(&wire.JobResponse{Seq: req.Seq, Plans: res.Plans, Stats: res.Stats})
	case ctx.Err() != nil:
		return wire.WorkerErrorFrame(&wire.WorkerError{Seq: req.Seq, Code: wire.ErrCanceled, Msg: wire.CanceledMsg})
	default:
		return wire.WorkerErrorFrame(&wire.WorkerError{Seq: req.Seq, Code: wire.ErrJobFailed, Msg: err.Error()})
	}
}

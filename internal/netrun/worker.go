package netrun

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"

	"mpq/internal/core"
	"mpq/internal/wire"
)

// Worker is a TCP optimization worker. It serves job requests until
// closed; each connection handles frames sequentially (a worker node
// optimizes one partition at a time, like one Spark executor).
type Worker struct {
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ListenWorker starts a worker on addr (e.g. "127.0.0.1:0") and begins
// accepting connections in the background.
func ListenWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrun: listen: %w", err)
	}
	w := &Worker{ln: ln, conns: map[net.Conn]struct{}{}}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.serveConn(conn)
	}
}

// serveConn processes a connection's frames sequentially, but reads
// ahead in a separate goroutine so a peer disconnect is noticed even
// while a job is computing: the reader's failure cancels the
// connection context, the in-flight dynamic program aborts between
// cardinality levels, and the worker stops burning CPU for a master
// that will never read the answer (a crashed master, a canceled batch,
// or a daemon client that gave up). Closing the worker closes the
// connection, which trips the same path — Close no longer waits for
// abandoned jobs to finish.
//
// The reader also intercepts CancelRequest frames without queueing
// them: a master that speculatively re-dispatched the in-flight
// partition elsewhere (and saw the clone win) cancels just that
// request's sequence number. The in-flight dynamic program aborts, and
// the main loop answers with an explicit WorkerError{ErrCanceled}
// frame — the master is blocked reading this connection and needs a
// frame to resynchronize — after which the connection keeps serving.
func (w *Worker) serveConn(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
		conn.Close()
	}()
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow connection-lifetime root; the reader goroutine cancels it on disconnect and Close closes every conn
	defer cancel()
	jobs := &seqCancels{canceled: map[uint32]bool{}}
	frames := make(chan []byte)
	w.wg.Add(1)
	go func() { // reader: detects disconnect and cancels even mid-compute
		defer w.wg.Done()
		defer cancel()
		defer close(frames)
		br := bufio.NewReader(conn) // kept across frames: pipelined bytes read ahead stay buffered
		for {
			payload, err := wire.ReadFrameLimit(br, wire.MaxRequestFrame)
			if err != nil {
				return // EOF, closed, or a length prefix no request has
			}
			if tag, err := wire.MessageTag(payload); err == nil && tag == wire.TagCancelRequest {
				if c, err := wire.DecodeCancelRequest(payload); err == nil {
					jobs.cancel(c.Seq)
				}
				continue // never queued: it must act while a job computes
			}
			select {
			case frames <- payload:
			case <-ctx.Done():
				return
			}
		}
	}()
	for payload := range frames {
		seq := wire.PeekJobRequestSeq(payload)
		jobCtx, stop := jobs.begin(ctx, seq)
		resp := handleRequest(jobCtx, payload)
		jobs.end()
		stop()
		if resp == nil {
			if ctx.Err() != nil {
				return // connection gone mid-compute; nothing to answer
			}
			// Per-sequence cancel: the master explicitly no longer wants
			// this answer but is still reading — acknowledge and move on.
			resp = wire.WorkerErrorFrame(&wire.WorkerError{
				Seq: seq, Code: wire.ErrCanceled, Msg: wire.CanceledMsg,
			})
		}
		if err := wire.WriteFramed(conn, resp); err != nil {
			return
		}
	}
}

// seqCancels routes per-sequence CancelRequest frames (arriving on a
// connection's reader goroutine) to the job currently computing on the
// main loop. A cancel can also race ahead of its own request — the
// reader processes frames the main loop has not started yet — so
// cancels for unknown sequence numbers are remembered and applied the
// moment that request begins.
type seqCancels struct {
	mu       sync.Mutex
	seq      uint32
	stop     context.CancelFunc // nil when no request is computing
	canceled map[uint32]bool
}

// begin registers the request about to compute and returns its context,
// pre-canceled if the cancel frame arrived first.
func (s *seqCancels) begin(parent context.Context, seq uint32) (context.Context, context.CancelFunc) {
	ctx, stop := context.WithCancel(parent)
	s.mu.Lock()
	s.seq, s.stop = seq, stop
	if s.canceled[seq] {
		delete(s.canceled, seq)
		stop()
	}
	s.mu.Unlock()
	return ctx, stop
}

// end marks the in-flight request finished; later cancels for its
// sequence number are stale and must not touch the next job.
func (s *seqCancels) end() {
	s.mu.Lock()
	s.stop = nil
	s.mu.Unlock()
}

// cancel aborts the given sequence number: immediately if it is the
// job in flight, or on arrival if the request has not started yet.
func (s *seqCancels) cancel(seq uint32) {
	s.mu.Lock()
	if s.stop != nil && s.seq == seq {
		s.stop()
	} else if s.seq < seq {
		// Not started yet (masters number requests from 1 up and cancel
		// only after the request, so a cancel for a future seq is a
		// read-ahead race). A cancel for a seq already begun is stale and
		// dropped; the bound keeps the map finite against a bad peer.
		if len(s.canceled) < 1024 {
			s.canceled[seq] = true
		}
	}
	s.mu.Unlock()
}

// handleRequest decodes and executes one job under the connection's
// context and returns the whole reply frame, length prefix included
// (wire.WriteFramed). Failures are reported with an explicit wire.WorkerError
// frame so the master can distinguish a request damaged in transit
// (ErrBadRequest — the master validates jobs before sending, so
// re-dispatch can help) from a deterministic job failure (ErrJobFailed
// — every worker would fail identically). A context cancellation means
// the connection died mid-compute; there is no one left to answer, so
// it returns nil instead of a frame. Every reply echoes the request's
// sequence number so the master can discard duplicated or stale
// frames; on a decode failure the Seq is recovered best-effort (0 when
// unreadable, which masters accept for any job).
func handleRequest(ctx context.Context, payload []byte) []byte {
	req, err := wire.DecodeJobRequest(payload)
	if err != nil {
		return wire.WorkerErrorFrame(&wire.WorkerError{
			Seq: wire.PeekJobRequestSeq(payload), Code: wire.ErrBadRequest, Msg: fmt.Sprintf("decode: %v", err),
		})
	}
	res, err := core.RunWorkerContext(ctx, req.Query, req.Spec, req.PartID)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return wire.WorkerErrorFrame(&wire.WorkerError{
			Seq: req.Seq, Code: wire.ErrJobFailed, Msg: err.Error(),
		})
	}
	return wire.JobResponseFrame(&wire.JobResponse{Seq: req.Seq, Plans: res.Plans, Stats: res.Stats})
}

// Close stops accepting and tears down open connections.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	return err
}

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

// The wire front end speaks the repo's binary protocol with full-query
// semantics: a JobRequest carries a complete query plus spec, the
// daemon optimizes it through the wrapped engine (PartID is ignored —
// partitioning is the engine's business, not the client's), and the
// reply is a JobResponse echoing the request's Seq. Plans[0] is always
// the engine's chosen Best — sent explicitly so clients never re-derive
// it and near-tied cost lines cannot make the two sides disagree; for
// MultiObjective jobs the merged frontier follows at Plans[1:].
// Responses arrive in completion order — a connection may pipeline
// requests and match replies by Seq. Admission rejections come back as
// WorkerError{Code: ErrOverloaded}, which masters classify retryable.
//
// A request the engine's plan cache already answered is served before
// admission, on the connection's own reader: when the engine is a
// wireCache (mpq.CachedEngine), the frame's bytes are looked up as they
// arrived, and a hit writes the stored reply frame with the request's
// Seq patched in — byte for byte the frame the engine's answer would
// encode to. No query is decoded, no plan encoded, and no queue slot,
// dispatcher or request context is taken, so queue depth, stride
// fairness and Config.Dispatchers govern engine calls only. A hit still
// counts in /metrics and the plan log as a served request. A miss, a
// frame that does not key, an engine without a cache, and any request
// once a drain began take the decode-and-admit path unchanged.

// wireCache is a plan cache that answers a wire job-request frame from
// a stored reply frame (mpq.CachedEngine.AppendWireHit): on a hit it
// appends the reply to dst and returns the stored answer.
type wireCache interface {
	AppendWireHit(dst, req []byte) ([]byte, *mpq.Answer, bool)
}

// acceptWire runs the wire listener's accept loop.
func (s *Server) acceptWire(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveWireConn(conn)
		}()
	}
}

// serveWireConn reads frames until the peer hangs up or a drain
// half-closes the read side. A frame the plan cache answers is replied
// to at once, from this goroutine. Every other frame is submitted to
// the arrival queue, and the dispatcher that serves it writes its reply, one frame
// at a time under a per-connection mutex, in the order requests
// complete. A peer disconnect cancels the connection context — and
// with it every pending request from this peer — while a drain lets
// pending requests finish and write their replies before the socket
// closes.
func (s *Server) serveWireConn(conn net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.wireConns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.wireConns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	connCtx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow connection-lifetime root; teardown is cancel/conn.Close, and Shutdown closes every tracked conn
	defer cancel()
	// Canceling connCtx is a full teardown: closing the conn unblocks a
	// reader waiting on a silent peer and a writer stuck mid-frame, so
	// every goroutine tied to this connection unwinds promptly.
	stopKill := context.AfterFunc(connCtx, func() { conn.Close() })
	defer stopKill()

	// Wire fairness bucket: the peer host. Weights keyed by host names
	// in Config.TenantWeights apply.
	tenant := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(tenant); err == nil {
		tenant = host
	}

	// reply writes one frame from the calling goroutine, or drops it if
	// the connection is already gone (nobody left to read it). The
	// deadline is the liveness guarantee for the whole connection: a
	// peer that stops reading fails this write within WireWriteTimeout,
	// which cancels connCtx and closes the conn, so the replies queued
	// on writeMu behind it fail or drop at once — dispatchers are never
	// wedged behind a dead client.
	var writeMu sync.Mutex
	reply := func(frame []byte) {
		writeMu.Lock()
		defer writeMu.Unlock()
		if connCtx.Err() != nil {
			return
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WireWriteTimeout))
		if err := wire.WriteFramed(conn, frame); err != nil {
			cancel() // peer unreachable: kill this conn's in-flight work
		}
	}

	// pending counts submitted requests whose respond has not run yet;
	// every exit path waits for it before the conn closes, so a drain
	// writes every reply first.
	var pending sync.WaitGroup
	defer func() {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if !draining {
			// Peer disconnect: in-flight work has no reader, abort it.
			cancel()
		}
		pending.Wait() // every respond has written (or dropped) its frame
	}()

	cache, _ := s.cfg.Engine.(wireCache)
	var hitFrame []byte         // the reader's reply buffer for cache hits, reused frame to frame
	br := bufio.NewReader(conn) // one for the conn's life: frames read ahead stay buffered
	for {
		payload, err := wire.ReadFrameLimit(br, wire.MaxRequestFrame)
		if err != nil {
			return // EOF, peer reset, drain half-close, or oversized frame
		}
		tag, err := wire.MessageTag(payload)
		if err != nil {
			reply(wire.WorkerErrorFrame(&wire.WorkerError{
				Seq: wire.PeekJobRequestSeq(payload), Code: wire.ErrBadRequest,
				Msg: fmt.Sprintf("header: %v", err),
			}))
			continue
		}
		if reason := rejectWireTag(tag); reason != "" {
			reply(wire.WorkerErrorFrame(&wire.WorkerError{
				Seq: wire.PeekJobRequestSeq(payload), Code: wire.ErrBadRequest,
				Msg: reason,
			}))
			continue
		}
		if cache != nil && !s.isDraining() {
			start := time.Now()
			var ans *mpq.Answer
			var hit bool
			if hitFrame, ans, hit = cache.AppendWireHit(hitFrame[:0], payload); hit {
				s.observeWireHit(tenant, payload, ans, time.Since(start))
				reply(hitFrame) // synchronous: hitFrame is free again once it returns
				continue
			}
		}
		jr, err := wire.DecodeJobRequest(payload)
		if err != nil {
			reply(wire.WorkerErrorFrame(&wire.WorkerError{
				Seq: wire.PeekJobRequestSeq(payload), Code: wire.ErrBadRequest,
				Msg: fmt.Sprintf("decode: %v", err),
			}))
			continue
		}
		seq := jr.Seq
		multi := jr.Spec.Objective.HasFrontier()
		ctx, reqCancel := context.WithTimeout(connCtx, s.cfg.DefaultTimeout)
		req := &request{
			ctx:    ctx,
			cancel: reqCancel,
			id:     s.nextID(),
			tenant: tenant,
			source: "wire",
			query:  jr.Query,
			spec:   jr.Spec,
			enq:    time.Now(),
		}
		pending.Add(1)
		req.respond = func(res result) {
			defer pending.Done()
			reply(encodeWireResult(seq, multi, res))
		}
		if err := s.submit(req); err != nil {
			pending.Done()
			reqCancel()
			reply(wire.WorkerErrorFrame(&wire.WorkerError{
				Seq: seq, Code: wire.ErrOverloaded, Msg: err.Error(),
			}))
			if errors.Is(err, ErrDraining) {
				// The daemon is going away for good; close the conn
				// (after in-flight replies are written) so the client
				// redirects instead of retrying a dying server.
				return
			}
		}
	}
}

// rejectWireTag classifies an incoming frame's tag: an empty reason
// accepts it, anything else becomes the ErrBadRequest message. The
// switch is deliberately exhaustive over wire.Tag — the tagswitch
// analyzer fails the lint when a new tag constant is added without a
// serving-path decision here.
func rejectWireTag(tag wire.Tag) (reason string) {
	switch tag {
	case wire.TagJobRequest:
		return ""
	case wire.TagCancelRequest:
		return "cancel frames belong to the worker protocol; the daemon cancels work by connection teardown"
	case wire.TagQuery, wire.TagPlan:
		return "bare query/plan frames are serialization records, not requests"
	case wire.TagJobResponse, wire.TagWorkerError:
		return "response frames flow server-to-client only"
	default:
		return "unknown message tag"
	}
}

// observeWireHit records a wire cache hit as serve records an engine
// call: a served request in /metrics, with the lookup as its service
// time, and, when the plan log is on, a decision record, for which —
// and only for which — the frame is decoded.
func (s *Server) observeWireHit(tenant string, payload []byte, ans *mpq.Answer, served time.Duration) {
	n := s.reqSeq.Add(1)
	s.metrics.observe(tenant, "wire", "served", served)
	s.metrics.observeAnswer(ans)
	if s.plog == nil {
		return
	}
	jr, err := wire.DecodeJobRequest(payload)
	if err != nil {
		return // unreachable: a frame that keys to a stored entry decodes
	}
	hit := *ans
	hit.Cache = &mpq.CacheStats{Hit: true}
	req := &request{id: requestID(n), tenant: tenant, source: "wire", query: jr.Query, spec: jr.Spec}
	s.logDecision(req, result{ans: &hit, served: served})
}

// encodeWireResult turns a request outcome into its whole response
// frame (wire.WriteFramed). Plans[0] is the engine's chosen Best; for
// multi-objective jobs the merged frontier follows in order, so the
// client reconstructs both without re-deriving the best-plan tie-break.
// wire.AnswerFrame is also what the plan cache stores, so a wire cache
// hit sends these very bytes.
func encodeWireResult(seq uint32, multi bool, res result) []byte {
	if res.err != nil {
		code := wire.ErrJobFailed
		if errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded) {
			// Transient serving-side conditions, not deterministic job
			// failures: a retry against a less loaded daemon can succeed.
			code = wire.ErrOverloaded
		}
		return wire.WorkerErrorFrame(&wire.WorkerError{Seq: seq, Code: code, Msg: res.err.Error()})
	}
	var frontier []*mpq.Plan
	if multi {
		frontier = res.ans.Frontier
	}
	return wire.AnswerFrame(seq, res.ans.Best, frontier, res.ans.Stats)
}

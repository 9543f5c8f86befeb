package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq"
	"mpq/internal/netrun"
	"mpq/internal/wire"
)

// The wire front end is a netrun.Endpoint, the connection loop the TCP
// worker runs too, with wireHandler as its handler. It speaks the
// repo's binary protocol with full-query semantics: a JobRequest
// carries a complete query plus spec, the daemon optimizes it through
// the wrapped engine (PartID is ignored —
// partitioning is the engine's business, not the client's), and the
// reply is a JobResponse echoing the request's Seq. Plans[0] is always
// the engine's chosen Best — sent explicitly so clients never re-derive
// it and near-tied cost lines cannot make the two sides disagree; for
// MultiObjective jobs the merged frontier follows at Plans[1:].
// Responses arrive in completion order — a connection may pipeline
// requests and match replies by Seq. Admission rejections come back as
// WorkerError{Code: ErrOverloaded}, which masters classify retryable.
// A client that gives up on a request sends a CancelRequest for its Seq
// (Client does, when a call's context ends): the request's context is
// canceled, whether it waits in the queue or runs in the engine, and
// its reply is WorkerError{Code: ErrCanceled}. Nobody computes an
// answer nobody waits for.
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

// wireHandler is the daemon's side of one wire connection: the handler
// its netrun.Endpoint calls with each job request. A frame the plan
// cache answers is replied to at once, from the connection's reader.
// Every other frame is decoded and submitted to the arrival queue, and
// the dispatcher that serves it writes its reply, in the order requests
// complete. A CancelRequest for a request's Seq cancels its context,
// queued or running, and it is answered WorkerError{ErrCanceled}. A
// peer disconnect cancels every request from this peer, while a drain
// lets them finish and write their replies before the socket closes.
type wireHandler struct {
	s      *Server
	c      *netrun.Conn
	tenant string
	cache  wireCache
	hit    []byte // the reply buffer for cache hits, reused frame to frame
	// pending counts submitted requests whose respond has not run yet;
	// Close waits for it, so a drain writes every reply first.
	pending sync.WaitGroup
}

func (s *Server) newWireHandler(c *netrun.Conn) netrun.Handler {
	// Wire fairness bucket: the peer host. Weights keyed by host names
	// in Config.TenantWeights apply.
	tenant := c.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(tenant); err == nil {
		tenant = host
	}
	cache, _ := s.cfg.Engine.(wireCache)
	return &wireHandler{s: s, c: c, tenant: tenant, cache: cache}
}

func (w *wireHandler) Request(payload []byte) bool {
	s := w.s
	if w.cache != nil && !s.isDraining() {
		start := time.Now()
		var ans *mpq.Answer
		var hit bool
		if w.hit, ans, hit = w.cache.AppendWireHit(w.hit[:0], payload); hit {
			s.observeWireHit(w.tenant, payload, ans, time.Since(start))
			w.c.Reply(w.hit) // synchronous: the buffer is free again once it returns
			return true
		}
	}
	jr, err := wire.DecodeJobRequest(payload)
	if err != nil {
		w.c.Refuse(payload, fmt.Sprintf("decode: %v", err))
		return true
	}
	seq, multi := jr.Seq, jr.Spec.Objective.HasFrontier()
	tctx, cancel := context.WithTimeout(w.c.Context(), s.cfg.DefaultTimeout)
	ctx, stop := w.c.Begin(tctx, seq)
	req := s.newRequest(ctx, cancel, w.tenant, "wire", jr.Query, jr.Spec)
	w.pending.Add(1)
	req.respond = func(res result) {
		defer w.pending.Done()
		if res.err != nil && context.Cause(ctx) == netrun.ErrCanceled {
			res.err = netrun.ErrCanceled
		}
		stop()
		w.c.Reply(encodeWireResult(seq, multi, res))
	}
	if err := s.submit(req); err != nil {
		req.respond(result{err: err})
		cancel()
		// A draining daemon is going away for good: stop reading, and the
		// conn closes after the replies in flight, so the client
		// redirects instead of retrying a dying server.
		return !errors.Is(err, ErrDraining)
	}
	return true
}

func (w *wireHandler) Close() { w.pending.Wait() }

// observeWireHit records a wire cache hit as serve records an engine
// call: a served request in /metrics, with the lookup as its service
// time, and, when the plan log is on, a decision record, for which —
// and only for which — the frame is decoded.
func (s *Server) observeWireHit(tenant string, payload []byte, ans *mpq.Answer, served time.Duration) {
	n := s.reqSeq.Add(1)
	s.metrics.observe(tenant, "wire", "served", served)
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
		switch {
		case errors.Is(res.err, netrun.ErrCanceled):
			code = wire.ErrCanceled // the client canceled it, as a master cancels a worker's job
		case errors.Is(res.err, ErrOverloaded), errors.Is(res.err, ErrDraining),
			errors.Is(res.err, context.Canceled), errors.Is(res.err, context.DeadlineExceeded):
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

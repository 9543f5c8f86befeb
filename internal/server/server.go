// Package server implements mpqd's resident optimizer service: a
// long-lived daemon that keeps an mpq.Engine saturated under sustained
// traffic instead of exiting after one batch — the serving shape the
// paper's shared-nothing optimizer is meant for.
//
// The server wraps any Engine (serial, in-process, simulated, TCP —
// composable with mpq.WithCache) behind two front ends:
//
//   - an HTTP/JSON API (POST /v1/optimize, POST /v1/batch) for humans,
//     scripts and load balancers, plus /healthz, /metrics (Prometheus
//     text format) and net/http/pprof under /debug/pprof/;
//   - the existing binary wire protocol (length-prefixed
//     wire.JobRequest/JobResponse frames with Seq echoes), so the same
//     client code that talks to a netrun worker can talk to the daemon.
//
// Every engine call passes one admission-controlled arrival queue (a
// wire request that the engine's plan cache answers from a stored reply
// frame is not an engine call, and is served before admission; see
// wirefront.go): at most Config.QueueDepth requests wait at a time,
// and load beyond that is rejected immediately (HTTP 429, wire
// ErrOverloaded — both retryable) instead of building an unbounded
// backlog. Waiting requests are
// dispatched by per-tenant stride scheduling: each tenant owns a FIFO
// and a virtual-time pass; the scheduler always serves the tenant with
// the smallest pass and advances it by stride = K/weight, so over any
// busy interval tenants receive service proportional to their
// configured weights regardless of how fast they submit.
//
// Answers are delivered in completion order, not submission order — a
// cheap query behind an expensive one on the same wire connection (or
// in the same HTTP batch) returns as soon as it finishes, identified
// by its Seq echo (wire) or its index field (batch stream). Each
// request runs under its own context: deadline from the request (or
// Config.DefaultTimeout), canceled when the submitting connection
// drops, so abandoned work stops burning CPU.
//
// On SIGTERM (or Shutdown) the server drains: it stops accepting,
// fails fast on new submissions, finishes the queue and the in-flight
// requests, and force-cancels whatever remains when the drain deadline
// expires. A bounded asynchronous plan log (one JSON record per served
// query, size-capped rotation, drop-with-counter under pressure)
// records every decision; see planlog.go.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpq"
	"mpq/internal/netrun"
)

// Defaults for Config fields left at zero.
const (
	DefaultQueueDepth       = 256
	DefaultDispatchers      = 4
	DefaultTimeout          = time.Minute
	DefaultDrainWait        = 10 * time.Second
	DefaultWireWriteTimeout = 10 * time.Second
)

// strideScale is the stride numerator: a tenant of weight w advances
// its virtual-time pass by strideScale/w per dispatched request.
const strideScale = 1 << 16

// ErrOverloaded reports that the arrival queue is at Config.QueueDepth:
// the request was rejected without queueing. Retry after a backoff (the
// HTTP front end maps it to 429 with Retry-After, the wire front end to
// wire.ErrOverloaded, which masters classify retryable).
var ErrOverloaded = errors.New("server: arrival queue full")

// ErrDraining reports that the server is shutting down and no longer
// admits work. The HTTP front end maps it to 503.
var ErrDraining = errors.New("server: draining")

// Config parameterizes a Server. Engine is required; everything else
// has a default.
type Config struct {
	// Engine executes the optimizations. Any mpq.Engine works, including
	// mpq.WithCache wrappers (whose totals then show up in /metrics).
	Engine mpq.Engine
	// HTTPAddr is the HTTP front end's listen address (e.g. ":8080",
	// "127.0.0.1:0"). Empty disables HTTP.
	HTTPAddr string
	// WireAddr is the wire-protocol front end's listen address. Empty
	// disables it.
	WireAddr string
	// QueueDepth bounds the number of admitted-but-not-yet-dispatched
	// requests; submissions beyond it fail with ErrOverloaded. A waiting
	// request whose context has ended holds no slot: a full queue drops
	// and answers those before it refuses. Zero means DefaultQueueDepth.
	QueueDepth int
	// Dispatchers is the number of concurrent engine calls. Zero means
	// DefaultDispatchers. It bounds requests taken off the queue, not
	// CPU: in-process DPs of all calls share GOMAXPROCS runtime slots.
	Dispatchers int
	// DefaultTimeout bounds a request that does not carry its own
	// deadline. Zero means DefaultTimeout (one minute).
	DefaultTimeout time.Duration
	// TenantWeights are the stride-scheduling weights; tenants not
	// listed get weight 1. Weights must be positive.
	TenantWeights map[string]float64
	// WireWriteTimeout bounds one reply-frame write on a wire
	// connection, which the dispatcher that served the request makes
	// itself. There is no reply backlog: once a peer that stops reading
	// has filled the socket buffers, every dispatcher that replies to it
	// waits on that write, for up to one WireWriteTimeout. The timeout
	// then tears the connection down (canceling its in-flight requests
	// and dropping their replies) and frees them all. Zero means
	// DefaultWireWriteTimeout.
	WireWriteTimeout time.Duration
	// PlanLog configures the asynchronous per-query decision log; the
	// zero value disables it.
	PlanLog PlanLogConfig
}

// withDefaults returns cfg with zero fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Dispatchers == 0 {
		cfg.Dispatchers = DefaultDispatchers
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = DefaultTimeout
	}
	if cfg.WireWriteTimeout == 0 {
		cfg.WireWriteTimeout = DefaultWireWriteTimeout
	}
	return cfg
}

// result is one request's outcome. queueWait and served are this
// request's own times — admission to dispatch, and the engine call —
// as Server.serve measured them; Answer.Elapsed is not a substitute,
// because a cached answer carries the original computation's.
type result struct {
	ans       *mpq.Answer
	err       error
	queueWait time.Duration
	served    time.Duration
}

// request is one admitted optimization request.
type request struct {
	ctx    context.Context
	cancel context.CancelFunc
	id     string
	tenant string
	source string // "http" or "wire"
	query  *mpq.Query
	spec   mpq.JobSpec
	enq    time.Time
	// respond is called exactly once per admitted request and must
	// return promptly: the HTTP front hands off to a buffered channel;
	// the wire front writes the reply frame on the dispatcher's own
	// goroutine, each write bounded by Config.WireWriteTimeout — a peer
	// that stops reading fails it, which tears the connection down and
	// drops every later reply on it.
	respond func(result)
}

// tenantQueue is one tenant's FIFO plus its stride-scheduling state.
type tenantQueue struct {
	name   string
	reqs   []*request
	pass   float64 // virtual time of the tenant's next dispatch
	stride float64 // strideScale / weight
}

// Server is the resident optimizer service. Create with New, start
// with Start, stop with Shutdown.
type Server struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantQueue
	vtime    float64 // global virtual time: pass of the last dispatch
	queued   int
	inflight map[*request]struct{}
	draining bool
	closed   bool
	reqSeq   atomic.Uint64 // the last request ID handed out (nextID)

	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error

	metrics *metrics
	plog    *planLog

	httpLn  net.Listener
	httpSrv *http.Server
	wire    *netrun.Endpoint // the wire front: accept, conns, frames
	wg      sync.WaitGroup   // dispatchers and the HTTP server
}

// New validates the configuration and builds a stopped server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.HTTPAddr == "" && cfg.WireAddr == "" {
		return nil, errors.New("server: no listen address (set HTTPAddr and/or WireAddr)")
	}
	if cfg.QueueDepth < 0 || cfg.Dispatchers < 0 {
		return nil, fmt.Errorf("server: negative queue depth %d or dispatchers %d", cfg.QueueDepth, cfg.Dispatchers)
	}
	if cfg.DefaultTimeout < 0 || cfg.WireWriteTimeout < 0 {
		return nil, fmt.Errorf("server: negative default timeout %v or wire write timeout %v", cfg.DefaultTimeout, cfg.WireWriteTimeout)
	}
	for name, w := range cfg.TenantWeights {
		if !(w > 0) {
			return nil, fmt.Errorf("server: tenant %q weight %g must be positive", name, w)
		}
	}
	plog, err := newPlanLog(cfg.PlanLog)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		tenants:      map[string]*tenantQueue{},
		inflight:     map[*request]struct{}{},
		metrics:      newMetrics(),
		plog:         plog,
		shutdownDone: make(chan struct{}),
	}
	s.wire = netrun.NewEndpoint(cfg.WireWriteTimeout, s.newWireHandler)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Start opens the configured listeners and starts the dispatcher pool.
// It returns once the listeners are accepting (so ":0" addresses can be
// read back with HTTPAddr/WireAddr).
func (s *Server) Start() error {
	if s.cfg.WireAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.WireAddr)
		if err != nil {
			return fmt.Errorf("server: wire listen: %w", err)
		}
		s.wire.Serve(ln)
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			s.wire.Close()
			return fmt.Errorf("server: http listen: %w", err)
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{Handler: s.httpHandler()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.httpSrv.Serve(ln) // returns on Shutdown/Close
		}()
	}
	for i := 0; i < s.cfg.Dispatchers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.dispatcher()
		}()
	}
	return nil
}

// HTTPAddr returns the HTTP listener's actual address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// WireAddr returns the wire listener's actual address ("" if disabled).
func (s *Server) WireAddr() string { return s.wire.Addr() }

// newRequest is an admission-ready request, arriving now; its respond
// is the caller's to set.
func (s *Server) newRequest(ctx context.Context, cancel context.CancelFunc, tenant, source string, q *mpq.Query, js mpq.JobSpec) *request {
	return &request{ctx: ctx, cancel: cancel, id: s.nextID(), tenant: tenant, source: source, query: q, spec: js, enq: time.Now()}
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// nextID hands out serving-layer request IDs.
func (s *Server) nextID() string { return requestID(s.reqSeq.Add(1)) }

// requestID formats the n-th request ID.
func requestID(n uint64) string { return fmt.Sprintf("r-%d", n) }

// submit admits a request into the arrival queue or rejects it with
// ErrOverloaded / ErrDraining. On success the dispatcher pool will call
// req.respond exactly once; on failure the caller answers the client.
// A full queue first lets go of the requests whose context ended while
// they waited — a CancelRequest, a disconnect or their deadline — and
// answers them as a dispatcher would, so dead requests never get live
// ones refused.
func (s *Server) submit(req *request) error {
	s.mu.Lock()
	var ended []*request
	if !s.draining && s.queued >= s.cfg.QueueDepth {
		ended = s.dropEnded()
	}
	err := s.admit(req)
	s.mu.Unlock()
	for _, r := range ended {
		s.serve(r) // its context has ended: answered without an engine call
	}
	return err
}

// dropEnded takes the queued requests whose context has ended off the
// queue, as pop takes a request to serve, and returns them. s.mu is
// held.
func (s *Server) dropEnded() []*request {
	var ended []*request
	for _, tq := range s.tenants {
		live := tq.reqs[:0]
		for _, r := range tq.reqs {
			if r.ctx.Err() == nil {
				live = append(live, r)
				continue
			}
			ended = append(ended, r)
			s.inflight[r] = struct{}{}
		}
		clear(tq.reqs[len(live):])
		tq.reqs = live
	}
	s.queued -= len(ended)
	s.metrics.setQueueDepth(s.queued)
	return ended
}

// admit queues req, or refuses it. s.mu is held.
func (s *Server) admit(req *request) error {
	if s.draining {
		s.metrics.reject(req.tenant, req.source, "draining")
		return ErrDraining
	}
	if s.queued >= s.cfg.QueueDepth {
		s.metrics.reject(req.tenant, req.source, "overloaded")
		return ErrOverloaded
	}
	tq := s.tenants[req.tenant]
	if tq == nil {
		weight := s.cfg.TenantWeights[req.tenant]
		if weight <= 0 {
			weight = 1
		}
		tq = &tenantQueue{name: req.tenant, stride: strideScale / weight}
		tq.pass = s.vtime + tq.stride
		s.tenants[req.tenant] = tq
	}
	if len(tq.reqs) == 0 && tq.pass < s.vtime {
		// A tenant returning from idle does not bank credit for the time
		// it was absent: its pass restarts at the current virtual time.
		tq.pass = s.vtime + tq.stride
	}
	tq.reqs = append(tq.reqs, req)
	s.queued++
	s.metrics.setQueueDepth(s.queued)
	s.cond.Signal()
	return nil
}

// pop blocks until a request is available and returns the next one
// under stride scheduling: the nonempty tenant with the smallest pass
// (ties broken by name for determinism) is served and its pass advances
// by its stride. Returns nil when the server is closed and the queue is
// empty.
func (s *Server) pop() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queued > 0 {
			var best *tenantQueue
			for _, tq := range s.tenants {
				if len(tq.reqs) == 0 {
					continue
				}
				if best == nil || tq.pass < best.pass || (tq.pass == best.pass && tq.name < best.name) {
					best = tq
				}
			}
			req := best.reqs[0]
			best.reqs = best.reqs[1:]
			s.queued--
			s.metrics.setQueueDepth(s.queued)
			s.vtime = best.pass
			best.pass += best.stride
			s.inflight[req] = struct{}{}
			return req
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// dispatcher is one engine-call worker: it pops requests in fairness
// order and serves them until the server closes.
func (s *Server) dispatcher() {
	for {
		req := s.pop()
		if req == nil {
			return
		}
		s.serve(req)
	}
}

// serve runs one request against the engine and delivers the outcome.
func (s *Server) serve(req *request) {
	defer func() {
		s.mu.Lock()
		delete(s.inflight, req)
		idle := s.queued == 0 && len(s.inflight) == 0
		s.mu.Unlock()
		if idle {
			s.cond.Broadcast() // wake a drain waiting for idleness
		}
		req.cancel()
	}()
	start := time.Now()
	res := result{queueWait: start.Sub(req.enq)}
	if err := req.ctx.Err(); err != nil {
		// Canceled or expired while queued: the client is gone or out of
		// time; do not burn an engine call.
		res.err = err
	} else {
		res.ans, res.err = s.cfg.Engine.Optimize(req.ctx, req.query, req.spec)
	}
	res.served = time.Since(start)
	outcome := "served"
	switch {
	case res.err == nil:
	case errors.Is(res.err, context.Canceled):
		outcome = "canceled"
	case errors.Is(res.err, context.DeadlineExceeded):
		outcome = "deadline"
	default:
		outcome = "failed"
	}
	s.metrics.observe(req.tenant, req.source, outcome, res.served)
	if res.ans != nil {
		s.metrics.observeAnswer(res.ans)
	}
	s.logDecision(req, res)
	req.respond(res)
}

// logDecision emits the plan-log record for one finished request.
func (s *Server) logDecision(req *request, res result) {
	if s.plog == nil {
		return
	}
	rec := Record{
		Time:        time.Now().UTC(),
		ID:          req.id,
		Tenant:      req.tenant,
		Source:      req.source,
		Tables:      req.query.N(),
		Predicates:  len(req.query.Preds),
		Space:       req.spec.Space.String(),
		Workers:     req.spec.Workers,
		Objective:   req.spec.Objective.String(),
		QueueMicros: res.queueWait.Microseconds(),
		ServeMicros: res.served.Microseconds(),
	}
	if res.err != nil {
		rec.Error = res.err.Error()
	} else {
		rec.Fingerprint = mpq.PlanFingerprint(res.ans.Best)
		rec.Cost = res.ans.Best.Cost
		rec.WorkUnits = res.ans.Stats.WorkUnits()
		rec.FrontierSize = len(res.ans.Frontier)
		if cs := res.ans.Cache; cs != nil {
			rec.CacheHit = cs.Hit
			rec.CacheCollapsed = cs.Collapsed
		}
	}
	s.plog.record(rec)
}

// Shutdown drains the server: stop accepting (listeners close, wire
// connections stop reading, new submissions fail with ErrDraining,
// /healthz turns 503), let the queue and in-flight requests finish and
// their responses flush, then tear down. If ctx expires first, every
// remaining request context is canceled — the engines abort
// cooperatively — and Shutdown returns ctx's error after they unwind.
// Idempotent: later calls return the first call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.shutdownErr = s.drain(ctx)
		close(s.shutdownDone)
	})
	<-s.shutdownDone
	return s.shutdownErr
}

func (s *Server) drain(ctx context.Context) error {
	// Stop accepting on both fronts. Wire connections are half-closed:
	// the read side stops (no new requests), the write side stays up so
	// in-flight responses still reach their clients before each socket
	// closes. The endpoint drains first, so a wire request refused with
	// ErrDraining finds its connection already draining.
	// http.Server.Shutdown waits for active handlers, which in turn wait
	// for their requests' responses — the queue drain below is what
	// unblocks them. It inherits the drain deadline: past it, Shutdown
	// gives up waiting and the unconditional httpSrv.Close() below
	// force-closes the stragglers.
	s.wire.Drain()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if s.httpLn != nil {
		s.httpLn.Close()
	}
	httpDone := make(chan struct{})
	if s.httpSrv != nil {
		go func() {
			defer close(httpDone)
			s.httpSrv.Shutdown(ctx)
		}()
	} else {
		close(httpDone)
	}

	// Wake the idleness wait when ctx fires. The broadcast holds s.mu so
	// it cannot fall between the loop's ctx check and its Wait.
	stopWatch := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stopWatch()

	forced := false
	s.mu.Lock()
	for s.queued > 0 || len(s.inflight) > 0 {
		if ctx.Err() != nil {
			forced = true
			// Hard deadline: cancel everything still running and flush the
			// queue with ErrDraining; dispatchers deliver the cancellations.
			for req := range s.inflight {
				req.cancel()
			}
			for _, tq := range s.tenants {
				for _, req := range tq.reqs {
					req.cancel()
				}
			}
			break
		}
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast() // dispatchers drain the rest (canceled) and exit
	s.mu.Unlock()
	if forced {
		// A peer that is not reading its responses holds its reply write,
		// and through it the connection, open past the deadline. Close
		// every wire connection outright, not just its read side, so
		// blocked writes fail and each connection unwinds.
		s.wire.Close()
	}

	s.wg.Wait() // dispatchers and the HTTP server
	s.wire.Wait()
	<-httpDone
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.plog != nil {
		s.plog.Close()
	}
	if forced {
		return fmt.Errorf("server: drain deadline exceeded, in-flight work canceled: %w", ctx.Err())
	}
	return nil
}

// tenantNames returns the known tenants sorted, for deterministic
// metrics output.
func (s *Server) tenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

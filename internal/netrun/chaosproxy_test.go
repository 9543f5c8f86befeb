package netrun

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq/internal/wire"
)

// FaultAction selects what the chaos proxy does to one relayed job.
type FaultAction int

const (
	// Pass relays the job and its response untouched.
	Pass FaultAction = iota
	// KillBeforeResponse drops both connections after reading the request
	// and before any response byte — a worker crash mid-job. The master
	// sees EOF (or a reset) on its read.
	KillBeforeResponse
	// Stall reads the request and then never answers, holding the
	// connection open until the master gives up (its per-job deadline) or
	// the proxy is closed — a hung worker.
	Stall
	// TruncateResponse forwards the job, then sends the length prefix and
	// only half the response payload before dropping the connection — a
	// worker dying mid-send.
	TruncateResponse
	// CorruptResponse forwards the job but flips the first payload byte of
	// the response (the wire magic), so the master receives a well-framed
	// but undecodable message — bit rot on the wire.
	CorruptResponse
	// CorruptRequest flips the first payload byte of the request before
	// forwarding, so the worker rejects it with an explicit
	// wire.ErrBadRequest error frame — bit rot in the other direction.
	CorruptRequest
	// SlowDrip forwards the job, then dribbles the response out a few
	// bytes at a time with Drip pauses in between — a congested link. The
	// master succeeds if its deadline outlasts the drip, times out
	// otherwise.
	SlowDrip
	// DuplicateResponse forwards the job, then sends the worker's
	// response frame twice — a retransmission bug or a replaying
	// middlebox. The duplicate sits in the connection buffer where a
	// naive master would read it as the answer to its *next* request;
	// the sequence echo lets the master detect and discard it.
	DuplicateResponse
)

// String names the action.
func (a FaultAction) String() string {
	switch a {
	case Pass:
		return "pass"
	case KillBeforeResponse:
		return "kill-before-response"
	case Stall:
		return "stall"
	case TruncateResponse:
		return "truncate-response"
	case CorruptResponse:
		return "corrupt-response"
	case CorruptRequest:
		return "corrupt-request"
	case SlowDrip:
		return "slow-drip"
	case DuplicateResponse:
		return "duplicate-response"
	default:
		return fmt.Sprintf("FaultAction(%d)", int(a))
	}
}

// FaultPlan scripts a ChaosProxy: the action applied to the i-th job
// frame the proxy relays (0-based, in arrival order, across all master
// connections). Jobs without an entry pass through untouched. Because
// the script keys on job arrival order rather than wall-clock time,
// every recovery path it drives is reproducible.
type FaultPlan map[int]FaultAction

// ChaosProxy is a deterministic fault-injecting TCP proxy in front of a
// single worker. The master connects to the proxy instead of the worker;
// the proxy relays length-prefixed frames and applies the scripted
// FaultPlan at frame granularity, which is what makes kill/stall/
// truncate/corrupt injections exact rather than timing-dependent.
type ChaosProxy struct {
	ln      net.Listener
	backend string
	plan    FaultPlan

	mu sync.Mutex
	// dripPause is the pause between chunks of a SlowDrip response
	// (default 2ms) and dripChunk the bytes written per chunk (default
	// 16); SetDrip changes them. Both are read under mu, since the
	// relay goroutines that drip run beside the test that sets them.
	dripPause time.Duration
	dripChunk int
	jobs      int
	conns     map[net.Conn]struct{}
	closed    bool
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewChaosProxy starts a proxy in front of the worker at backend,
// listening on an ephemeral loopback port.
func NewChaosProxy(backend string, plan FaultPlan) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netrun: chaos listen: %w", err)
	}
	p := &ChaosProxy{
		ln:        ln,
		backend:   backend,
		plan:      plan,
		dripPause: 2 * time.Millisecond,
		dripChunk: 16,
		conns:     map[net.Conn]struct{}{},
		stop:      make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; hand this to the master in
// place of the worker's address.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Jobs reports how many job frames the proxy has seen so far.
func (p *ChaosProxy) Jobs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobs
}

// SetDrip sets the pause between chunks of a SlowDrip response and the
// bytes written per chunk.
func (p *ChaosProxy) SetDrip(pause time.Duration, chunk int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dripPause, p.dripChunk = pause, chunk
}

// nextAction consumes the next job slot from the plan.
func (p *ChaosProxy) nextAction() FaultAction {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.plan[p.jobs]
	p.jobs++
	return a
}

func (p *ChaosProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *ChaosProxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !p.track(conn) {
			return
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// serve relays frames between one master connection and a fresh backend
// connection, applying the scripted fault for each job frame.
func (p *ChaosProxy) serve(master net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.untrack(master)
		master.Close()
	}()
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	if !p.track(backend) {
		return
	}
	defer func() {
		p.untrack(backend)
		backend.Close()
	}()
	for {
		req, err := wire.ReadFrame(master)
		if err != nil {
			return
		}
		action := p.nextAction()
		switch action {
		case KillBeforeResponse:
			return // defers close both conns; master reads EOF
		case Stall:
			p.hold(master)
			return
		case CorruptRequest:
			req[0] ^= 0xFF // breaks the wire magic: deterministic reject
		}
		if err := wire.WriteFrame(backend, req); err != nil {
			return
		}
		resp, err := wire.ReadFrame(backend)
		if err != nil {
			return
		}
		switch action {
		case TruncateResponse:
			hdr := frameHeader(len(resp))
			master.Write(hdr[:])
			master.Write(resp[:len(resp)/2])
			return
		case CorruptResponse:
			resp[0] ^= 0xFF
			if err := wire.WriteFrame(master, resp); err != nil {
				return
			}
		case SlowDrip:
			if !p.drip(master, resp) {
				return
			}
		case DuplicateResponse:
			if err := wire.WriteFrame(master, resp); err != nil {
				return
			}
			if err := wire.WriteFrame(master, resp); err != nil {
				return
			}
		default:
			if err := wire.WriteFrame(master, resp); err != nil {
				return
			}
		}
	}
}

// hold keeps a stalled connection open until the master hangs up or the
// proxy is closed.
func (p *ChaosProxy) hold(master net.Conn) {
	hung := make(chan struct{})
	go func() {
		// The master sends nothing else on this connection until it gets a
		// response, so a read only returns once the master closes it.
		var b [1]byte
		master.Read(b[:])
		close(hung)
	}()
	select {
	case <-hung:
	case <-p.stop:
	}
}

// drip writes one frame in small chunks with pauses, honoring Close.
func (p *ChaosProxy) drip(master net.Conn, resp []byte) bool {
	p.mu.Lock()
	pause, chunk := p.dripPause, p.dripChunk
	p.mu.Unlock()
	hdr := frameHeader(len(resp))
	if _, err := master.Write(hdr[:]); err != nil {
		return false
	}
	for off := 0; off < len(resp); off += chunk {
		end := off + chunk
		if end > len(resp) {
			end = len(resp)
		}
		if _, err := master.Write(resp[off:end]); err != nil {
			return false
		}
		select {
		case <-p.stop:
			return false
		case <-time.After(pause):
		}
	}
	return true
}

// frameHeader is the same length prefix WriteFrame produces; the proxy
// needs it bare to send headers that lie about the bytes that follow.
func frameHeader(n int) [4]byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	return hdr
}

// Close tears the proxy down: the listener, every relayed connection,
// and any held (stalled) connections.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.stop)
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}

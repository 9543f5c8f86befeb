package netrun

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mpq/internal/core"
	"mpq/internal/query"
	"mpq/internal/sched"
	"mpq/internal/wire"
)

const (
	// DefaultTimeout is the per-attempt deadline when Options.Timeout is
	// zero. The other policy fields' defaults live in internal/sched.
	DefaultTimeout = 2 * time.Minute
	// cancelWriteTimeout bounds the advisory CancelRequest frame write
	// to a speculative loser; a peer too wedged to accept 8 bytes loses
	// its connection on the next use anyway.
	cancelWriteTimeout = 2 * time.Second
)

// Options is the master's policy: per-attempt Timeout (zero means
// DefaultTimeout), retry budget, worker exclusion, weights and the
// adaptive-scheduling switches. It is sched.Config — the one place the
// fields are documented, validated and defaulted — so the same value
// configures this master and the simulated one (cluster.Faults.Policy).
type Options = sched.Config

// NetStats records measured traffic of one distributed optimization.
// It is an alias of core.NetStats so engine-agnostic answers can carry
// it without importing the transport.
type NetStats = core.NetStats

// Job is one (query, job spec) unit of a batch: OptimizeBatch pipelines
// the plan-space partitions of many independent queries through one
// pool of keep-alive worker connections.
type Job = core.Job

// Master coordinates remote workers. It is the transport half of the
// runtime — connections, frames, deadlines, byte accounting; every
// scheduling decision comes from the sched.Core it drives on the wall
// clock.
type Master struct {
	addrs []string
	opts  Options // defaults applied
	// trace, when set (tests only), sees every event the master feeds the
	// core and the actions it goes on to execute.
	trace func(sched.Event, sched.Actions)
}

// NewMaster returns a master that will distribute work over the given
// worker addresses under the policy opts. The addresses must be
// non-empty and distinct.
func NewMaster(addrs []string, opts Options) (*Master, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netrun: no worker addresses")
	}
	seen := make(map[string]struct{}, len(addrs))
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("netrun: empty worker address at position %d", i)
		}
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("netrun: duplicate worker address %q", a)
		}
		seen[a] = struct{}{}
	}
	if err := opts.Validate(len(addrs)); err != nil {
		return nil, fmt.Errorf("netrun: %w", err)
	}
	opts = opts.WithDefaults()
	opts.Timeout = cmp.Or(opts.Timeout, DefaultTimeout)
	return &Master{addrs: addrs, opts: opts}, nil
}

// ignoredFrame is one well-formed frame the master discarded for a
// stale sequence number, attributed to the query whose request
// originally produced it (qi) so per-query traffic accounting stays
// exact even when a duplicate surfaces while another query's unit is
// in flight on the same connection.
type ignoredFrame struct {
	qi    int
	bytes uint64
}

// jobResult is one job attempt's outcome, reported by runJob.
type jobResult struct {
	worker  int
	unit    sched.Unit
	resp    *wire.JobResponse
	elapsed time.Duration
	sent    uint64
	rcvd    uint64
	msgs    int
	dialed  bool // this attempt opened a new connection
	ignored []ignoredFrame
	err     error
	outcome sched.Outcome
}

// connState is one worker's keep-alive connection plus its
// request sequence counter. The counter survives redials — sequence
// numbers only ever need to be unique per connection, and a
// monotonically increasing one is unique per master lifetime. owner
// maps every sequence number sent on the current connection to the
// query it belongs to, so a late duplicate can be billed to the right
// query; it is reset on redial (a fresh stream cannot replay old
// frames). r is the connection's one buffered reader, made on dial and
// dropped with the conn, so a redial never reads an old stream's bytes.
//
// mu serializes writes on the connection and guards the conn pointer
// and inflight field: the coordinator goroutine injects advisory
// CancelRequest frames (cancelInFlight) into a stream runJob otherwise
// owns, and closes the connection at teardown (abort). seq, owner and r
// are private to runJob, whose calls for one worker never overlap.
type connState struct {
	mu       sync.Mutex
	conn     net.Conn
	inflight uint32 // seq awaiting a response; 0 = none
	seq      uint32
	owner    map[uint32]int
	r        *bufio.Reader
}

// hangUp closes the connection, if any; nothing is in flight on it any
// more, and the next attempt redials. Called from runJob only.
func (st *connState) hangUp() {
	st.mu.Lock()
	conn := st.conn
	st.conn, st.inflight = nil, 0
	st.mu.Unlock()
	if conn != nil {
		conn.Close()
		st.owner, st.r = nil, nil // a fresh stream cannot replay old frames
	}
}

// abort closes the connection, if any, unblocking an attempt stuck in a
// read or write. The coordinator calls it at teardown, after canceling
// the attempts' ctx: a dial that finishes later sees that ctx ended and
// closes its own connection (runJob), so none outlives the call.
func (st *connState) abort() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.conn != nil {
		st.conn.Close()
	}
}

// cancelInFlight asks the worker to abort the request currently
// awaiting a response on this connection — the master no longer wants
// the answer (a speculative clone of the same partition won the race).
// Advisory and non-blocking for the caller beyond a short write: if the
// write fails or stalls, the worker simply finishes the job and its
// late response is discarded as stale. A partial write can desync the
// stream; the worker then answers the next request with a decode
// error, which the transport-failure path already handles by redialing.
// Returns the frame bytes put on the wire (0 if nothing was sent) so
// the caller can bill the traffic.
func (st *connState) cancelInFlight() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.conn == nil || st.inflight == 0 {
		return 0
	}
	frame := wire.CancelRequestFrame(&wire.CancelRequest{Seq: st.inflight})
	st.conn.SetWriteDeadline(time.Now().Add(cancelWriteTimeout))
	if err := wire.WriteFramed(st.conn, frame); err != nil {
		return 0
	}
	return len(frame)
}

// runJob performs one job attempt on worker ni under the per-job
// deadline: the configured Timeout, tightened by the context deadline if
// that comes first. It dials lazily and keeps the connection in st
// across jobs (and across the queries of a batch). st is shared with
// the coordinator, which uses it only through cancelInFlight and abort.
// Canceling ctx aborts a dial in flight.
func (ms *Master) runJob(ctx context.Context, ni int, job Job, u sched.Unit, st *connState) jobResult {
	addr := ms.addrs[ni]
	res := jobResult{worker: ni, unit: u}
	t0 := time.Now()
	deadline := t0.Add(ms.opts.Timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	// Whatever the outcome, the request is no longer awaiting a response
	// once runJob returns — late cancels must not target the next job's
	// sequence number.
	defer func() {
		st.mu.Lock()
		st.inflight = 0
		st.mu.Unlock()
	}()
	// fail records a transport-level error and drops the connection: the
	// stream may be out of sync, and the next attempt should redial.
	fail := func(err error) jobResult {
		res.err, res.outcome = err, sched.Failed
		res.elapsed = time.Since(t0)
		st.hangUp()
		return res
	}
	if st.conn == nil {
		// Dialing happens outside the mutex — a nil conn means nothing is
		// in flight, so cancelInFlight correctly no-ops meanwhile.
		d := net.Dialer{Deadline: deadline}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return fail(fmt.Errorf("dial %s: %w", addr, err))
		}
		st.mu.Lock()
		if ctx.Err() != nil {
			// The coordinator tore down while the dial ran, so its abort
			// may have passed st already: this conn is ours to close.
			st.mu.Unlock()
			c.Close()
			return fail(fmt.Errorf("dial %s: %w", addr, context.Cause(ctx)))
		}
		st.conn = c
		st.mu.Unlock()
		st.owner, st.r = map[uint32]int{}, bufio.NewReader(c)
		res.dialed = true
	}
	conn := st.conn
	st.seq++
	seq := st.seq
	st.owner[seq] = u.Job
	frame := wire.JobRequestFrame(&wire.JobRequest{Seq: seq, Spec: job.Spec, PartID: u.Part, Query: job.Query})
	// The request write and the in-flight marker share one critical
	// section so a concurrent cancel frame can never interleave with (or
	// target a request that precedes) the request bytes.
	st.mu.Lock()
	conn.SetDeadline(deadline)
	werr := wire.WriteFramed(conn, frame)
	if werr == nil {
		st.inflight = seq
	}
	st.mu.Unlock()
	if werr != nil {
		return fail(fmt.Errorf("send to %s: %w", addr, werr))
	}
	res.sent = uint64(len(frame))
	res.msgs++
	for {
		respB, err := wire.ReadFrame(st.r)
		if err != nil {
			return fail(fmt.Errorf("receive from %s: %w", addr, err))
		}
		frameBytes := uint64(len(respB) + 4)
		// Accepted (and undecodable) frames are billed to the unit in
		// flight below; duplicates are billed to the query that
		// originally produced them via the connection's owner map.
		accept := func() {
			res.rcvd += frameBytes
			res.msgs++
		}
		tag, err := wire.MessageTag(respB)
		if err != nil {
			accept()
			return fail(fmt.Errorf("from %s: %w", addr, err))
		}
		switch tag {
		case wire.TagWorkerError:
			we, err := wire.DecodeWorkerError(respB)
			if err != nil {
				accept()
				return fail(fmt.Errorf("decode from %s: %w", addr, err))
			}
			if we.Seq != 0 && we.Seq != seq {
				// A stale error frame for an earlier request (duplicated or
				// replayed on the wire). Ignore it and keep reading.
				res.ignored = append(res.ignored, ignoredFrame{qi: st.ownerOf(we.Seq, u.Job), bytes: frameBytes})
				continue
			}
			accept()
			// The frame itself arrived intact, so the connection stays usable.
			res.err = fmt.Errorf("worker %s partition %d: %w", addr, u.Part, we)
			switch we.Code {
			case wire.ErrCanceled:
				res.outcome = sched.Canceled
			case wire.ErrJobFailed:
				res.outcome = sched.Fatal
			default:
				res.outcome = sched.Failed
			}
			res.elapsed = time.Since(t0)
			return res
		case wire.TagJobResponse:
			resp, err := wire.DecodeJobResponse(respB)
			if err != nil {
				accept()
				return fail(fmt.Errorf("decode from %s: %w", addr, err))
			}
			if resp.Seq != seq {
				// Duplicate or stale response: a chaos proxy (or a confused
				// network) replayed a frame. The sequence echo proves it is
				// not the answer to the request in flight — discard it.
				res.ignored = append(res.ignored, ignoredFrame{qi: st.ownerOf(resp.Seq, u.Job), bytes: frameBytes})
				continue
			}
			accept()
			res.resp = resp
			res.elapsed = time.Since(t0)
			return res
		default:
			accept()
			return fail(fmt.Errorf("unexpected message tag %d from %s", tag, addr))
		}
	}
}

// ownerOf reports which query the given sequence number was sent for
// on this connection, falling back to the unit in flight for sequence
// numbers the connection never issued.
func (st *connState) ownerOf(seq uint32, fallback int) int {
	if qi, ok := st.owner[seq]; ok {
		return qi
	}
	return fallback
}

// Optimize runs MPQ over the remote workers. The spec's Workers field
// sets the number of plan-space partitions; if it exceeds the number of
// worker addresses, partitions are assigned round-robin (or by weight)
// and executed sequentially per worker.
//
// Optimize survives worker failures: see the package comment for the
// failure model. Whenever at least one worker survives and the retry
// budget suffices, the returned plan is bit-identical to a failure-free
// run, because responses are gathered in partition-ID order.
//
// When ctx is canceled the dispatcher stops handing out work,
// force-closes every connection it opened (unblocking attempts stuck in
// reads), aborts in-flight dials, waits for all its goroutines, and
// returns an error wrapping ctx's cause. A ctx deadline also tightens
// each job attempt's transport deadline, so per-job deadlines flow from
// context.WithDeadline rather than a bespoke field.
func (ms *Master) Optimize(ctx context.Context, q *query.Query, spec core.JobSpec) (*core.Answer, error) {
	answers, err := ms.OptimizeBatch(ctx, []Job{{Query: q, Spec: spec}})
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// OptimizeBatch optimizes a batch of independent queries through one
// pool of keep-alive worker connections: every (query, partition) pair
// becomes one unit of work, each worker's queue is seeded with its
// (weighted) share of every query, and units are executed back to back
// on the same connections — in a failure-free batch the master dials
// each worker exactly once instead of once per query (a transport
// failure drops that worker's connection, so recovery adds redials).
// Which worker runs which unit when — retries, exclusion, stealing,
// speculation, probes — is decided by internal/sched; worker-exclusion
// state spans the whole batch.
//
// Answers are returned in input order and are bit-identical to running
// each job through Optimize by itself: partitions of one query are
// aggregated in partition-ID order regardless of how the batch
// interleaved them. Any fatal error or exhausted retry budget aborts
// the whole batch.
func (ms *Master) OptimizeBatch(ctx context.Context, jobs []Job) ([]*core.Answer, error) {
	if len(jobs) == 0 {
		return []*core.Answer{}, nil
	}
	parts := make([]int, len(jobs))
	for qi, job := range jobs {
		if err := job.Prepare(); err != nil {
			return nil, err
		}
		parts[qi] = job.Spec.Workers
	}
	sch, err := sched.New(len(ms.addrs), ms.opts, parts)
	if err != nil {
		return nil, fmt.Errorf("netrun: %w", err)
	}
	start := time.Now()
	k := len(ms.addrs)

	// At most one job is in flight per worker, so a results buffer with
	// one slot per worker never blocks an attempt after the coordinator
	// stops receiving.
	results := make(chan jobResult, k)
	attempts, cancelAttempts := context.WithCancel(ctx)
	sts := make([]connState, k)
	var wg sync.WaitGroup
	defer func() {
		cancelAttempts() // aborts in-flight dials
		for i := range sts {
			sts[i].abort()
		}
		wg.Wait()
	}()

	// What the loop collects per query: the accepted partition results by
	// partition ID, the traffic bill, and when the last partition landed.
	done := make([][]core.PartResult, len(jobs))
	nets := make([]core.NetStats, len(jobs))
	elapsed := make([]time.Duration, len(jobs))
	for qi, job := range jobs {
		done[qi] = make([]core.PartResult, job.Spec.Workers)
	}
	canceled := func() ([]*core.Answer, error) {
		// The deferred cleanup force-closes every connection, aborting
		// in-flight work, and waits for the attempts to return.
		return nil, fmt.Errorf("netrun: %w", context.Cause(ctx))
	}

	// step feeds the core one event; the actions it returns are executed
	// by the loop below and nowhere else.
	step := func(ev sched.Event) (sched.Actions, error) {
		act, err := sch.Step(ev)
		if ms.trace != nil {
			ms.trace(ev, act)
		}
		return act, err
	}
	act, err := step(sched.Tick(0))
	for err == nil && !act.Done {
		if ctx.Err() != nil {
			return canceled()
		}
		for _, d := range act.Dispatch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results <- ms.runJob(attempts, d.Worker, jobs[d.Unit.Job], d.Unit, &sts[d.Worker])
			}()
		}
		var wake <-chan time.Time
		if act.Wake > 0 {
			// Never sleep less than a millisecond: a wake already due must
			// not turn the loop into a spin.
			wake = time.After(max(act.Wake-time.Since(start), time.Millisecond))
		}
		select {
		case res := <-results:
			bill(nets, res)
			// A transport failure at or past the caller's deadline is the
			// deadline's doing, not the worker's: the attempt deadline was
			// tightened to the ctx deadline, and conn timeouts can fire a
			// beat before the context's own timer. Wait for the (imminent)
			// timer so the error is the deadline, deterministically.
			if dl, ok := ctx.Deadline(); ok && res.outcome == sched.Failed && !time.Now().Before(dl) {
				<-ctx.Done()
				return canceled()
			}
			act, err = step(sched.Event{Now: time.Since(start), Worker: res.worker, Outcome: res.outcome, Elapsed: res.elapsed})
			if err != nil {
				return nil, schedError(err, res.err)
			}
			if act.Accepted {
				done[res.unit.Job][res.unit.Part] = core.PartResult{Plans: res.resp.Plans, Stats: res.resp.Stats, Elapsed: res.elapsed}
				if act.JobDone {
					elapsed[res.unit.Job] = time.Since(start)
				}
			}
			// This partition is still running elsewhere: tell the losers to
			// abort their dynamic programs.
			for _, nj := range act.Cancel {
				if n := sts[nj].cancelInFlight(); n > 0 {
					nets[res.unit.Job].BytesSent += uint64(n)
					nets[res.unit.Job].Messages++
				}
			}
		case <-wake:
			act, err = step(sched.Tick(time.Since(start)))
		case <-ctx.Done():
			return canceled()
		}
	}
	if err != nil {
		return nil, schedError(err, nil)
	}

	answers := make([]*core.Answer, len(jobs))
	for qi, job := range jobs {
		ans, err := core.Gather(job.Spec, done[qi])
		if err != nil {
			return nil, err
		}
		ns := &nets[qi]
		ns.Counters = sch.Counters(qi)
		ans.Net, ans.Elapsed = ns, elapsed[qi]
		answers[qi] = ans
	}
	return answers, nil
}

// schedError renders an error of the scheduling core the way the master
// always has; cause is the transport error of the attempt that tripped
// it, if any.
func schedError(err, cause error) error {
	var budget *sched.BudgetError
	switch {
	case errors.Is(err, sched.ErrFatal):
		return fmt.Errorf("netrun: %w", cause)
	case errors.As(err, &budget):
		return fmt.Errorf("netrun: %v: %w", err, cause)
	}
	return fmt.Errorf("netrun: %w", err)
}

// bill charges one attempt's traffic to the query it served, and every
// stale frame it read to the query that originally produced it.
func bill(nets []core.NetStats, res jobResult) {
	stats := &nets[res.unit.Job]
	stats.BytesSent += res.sent
	stats.BytesReceived += res.rcvd
	stats.Messages += res.msgs
	if res.dialed {
		stats.Dials++
	}
	for _, ig := range res.ignored {
		origin := &nets[ig.qi]
		origin.BytesReceived += ig.bytes
		origin.Messages++
		origin.IgnoredFrames++
	}
}

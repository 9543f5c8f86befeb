package netrun

import (
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

// DefaultTimeout is the per-attempt deadline when Options.Timeout is
// zero. The other policy fields' defaults live in internal/sched.
const DefaultTimeout = 2 * time.Minute

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

	mu     sync.Mutex
	idle   [][]*Client // per worker: the warm clients no call holds
	closed bool        // Close began: calls close the clients they leave
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
	return &Master{addrs: addrs, opts: opts, idle: make([][]*Client, len(addrs))}, nil
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

// leg is a call's client to one worker, held from the call's first
// attempt there to its end, and what the call sent on it: the query of
// each request, owner[i] for Seq first+i — the last is the one a
// speculative loser's cancel names — and the strays its read loop
// reported since the last attempt billed them.
type leg struct {
	mu     sync.Mutex // the coordinator's cancel and the read loop's strays reach a leg too
	c      *Client
	first  uint32
	owner  []int
	strays []stray
}

// stray is one reply the leg's client read for no pending request.
type stray struct {
	seq   uint32
	bytes int
}

// set hands the leg client c, or none (nil) once its client failed.
func (lg *leg) set(c *Client) {
	lg.mu.Lock()
	lg.c, lg.owner, lg.strays = c, lg.owner[:0], nil
	lg.mu.Unlock()
}

// sent records request seq, sent for query qi.
func (lg *leg) sent(seq uint32, qi int) {
	lg.mu.Lock()
	if len(lg.owner) == 0 {
		lg.first = seq
	}
	lg.owner = append(lg.owner, qi)
	lg.mu.Unlock()
}

func (lg *leg) onStray(seq uint32, bytes int) {
	lg.mu.Lock()
	lg.strays = append(lg.strays, stray{seq, bytes})
	lg.mu.Unlock()
}

// bill attributes the strays reported since the last bill to the query
// that sent their Seq: to none for an earlier call's Seq, to query
// fallback, the unit in flight, for a Seq never sent.
func (lg *leg) bill(fallback int) (billed []ignoredFrame) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, s := range lg.strays {
		if s.seq >= lg.first {
			qi := fallback
			if i := int(s.seq - lg.first); i < len(lg.owner) {
				qi = lg.owner[i]
			}
			billed = append(billed, ignoredFrame{qi: qi, bytes: uint64(s.bytes)})
		}
	}
	lg.strays = nil
	return billed
}

// cancel asks the worker to stop the request awaiting its reply on this
// leg — a speculative clone of its partition won the race — and returns
// the frame bytes written, which the caller bills. The attempt goes on
// waiting for its own reply: ErrCanceled, or the answer already sent.
func (lg *leg) cancel() int {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.c == nil || len(lg.owner) == 0 {
		return 0
	}
	return lg.c.Cancel(lg.first + uint32(len(lg.owner)-1))
}

// take hands lg a client to worker ni — a warm one if warm is set and
// one idles, else a new connection — and reports whether it dialed. A
// client whose read loop saw its worker hang up while it idled has
// failed, and is dropped here, never handed out.
func (ms *Master) take(ctx context.Context, ni int, lg *leg, warm bool) (dialed bool, err error) {
	var c *Client
	ms.mu.Lock()
	for warm && c == nil && len(ms.idle[ni]) > 0 {
		idle := ms.idle[ni]
		c, ms.idle[ni] = idle[len(idle)-1], idle[:len(idle)-1]
		if c.failed() != nil {
			c = nil // its worker hung up
		}
	}
	ms.mu.Unlock()
	if c == nil {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", ms.addrs[ni])
		if err != nil {
			return false, err
		}
		c, dialed = NewClient(conn), true
	}
	c.reportStrays(lg.onStray)
	lg.set(c)
	return dialed, nil
}

// release leaves each client a call held, no request outstanding on
// it, warm for the next call. A call holds at most one client per
// worker, so a worker's idle list never holds more clients than the
// most calls that ever ran at once. Once Close began, release closes
// them instead.
func (ms *Master) release(legs []leg) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for ni := range legs {
		if c := legs[ni].c; c != nil {
			c.reportStrays(nil)
			if ms.closed {
				c.Close()
			} else {
				ms.idle[ni] = append(ms.idle[ni], c)
			}
		}
	}
}

// Close closes the warm clients. A call still running closes the ones
// it holds when it ends; later calls dial afresh.
func (ms *Master) Close() error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.closed = true
	for _, cs := range ms.idle {
		for _, c := range cs {
			c.Close()
		}
	}
	clear(ms.idle)
	return nil
}

// runJob performs one job attempt on worker ni as one call on the
// call's client there (lg), which the call's first attempt on ni takes
// warm or dials. The attempt deadline — the configured Timeout,
// tightened by ctx's deadline if that comes first — is the call's
// context deadline: it bounds the dial and the wait for the reply (the
// client bounds the request write). A timeout, a transport error or a
// teardown (ctx canceled) closes the client, and the next attempt dials
// afresh; a reply, answer or WorkerError, leaves it in use.
//
// A client taken warm at this attempt may have lost its worker while it
// idled, before its read loop saw the hang-up. If its connection is
// lost before any reply frame arrives, the attempt dials once more and
// sends again; the lost request stays billed.
func (ms *Master) runJob(ctx context.Context, ni int, job Job, u sched.Unit, lg *leg) (res jobResult) {
	addr := ms.addrs[ni]
	res = jobResult{worker: ni, unit: u, outcome: sched.Failed}
	t0 := time.Now()
	ctx, cancel := context.WithDeadline(ctx, t0.Add(ms.opts.Timeout))
	defer cancel()
	defer func() { res.elapsed = time.Since(t0) }()
	// warm: whether this attempt takes its client warm; once taken,
	// whether a connection lost before any reply may still be redialed.
	warm := lg.c == nil
	for {
		if lg.c == nil {
			var err error
			if res.dialed, err = ms.take(ctx, ni, lg, warm); err != nil {
				res.err = fmt.Errorf("dial %s: %w", addr, err)
				return res
			}
			warm = !res.dialed
		}
		if !ms.call(ctx, job, u, lg, &res) || !warm || ctx.Err() != nil {
			return res
		}
		warm = false // lost before any reply: redial, once
	}
}

// call sends one attempt's request on lg's client and waits for the
// reply, adding its traffic to res. It reports whether the connection
// was lost before any reply frame arrived.
func (ms *Master) call(ctx context.Context, job Job, u sched.Unit, lg *leg, res *jobResult) (lost bool) {
	addr, c := ms.addrs[res.worker], lg.c
	call, err := c.Send(ctx, &wire.JobRequest{Spec: job.Spec, PartID: u.Part, Query: job.Query})
	if err != nil {
		c.Close()
		lg.set(nil)
		res.err = fmt.Errorf("send to %s: %w", addr, err)
		return true
	}
	lg.sent(call.Seq, u.Job)
	rep, err := c.Wait(ctx, call)
	res.sent += uint64(call.sent)
	res.rcvd, res.msgs = uint64(rep.bytes), res.msgs+2
	ignored := lg.bill(u.Job)
	res.ignored = append(res.ignored, ignored...)
	fe := (*frameError)(nil)
	if errors.As(err, &fe) {
		res.rcvd = uint64(fe.bytes) // it arrived whole: billed like a reply
	} else if err != nil {
		res.msgs--
	}
	switch {
	case err != nil:
		c.Close()
		lg.set(nil)
		res.err = fmt.Errorf("receive from %s: %w", addr, err)
		return fe == nil && len(ignored) == 0
	case rep.Remote == nil:
		res.resp, res.outcome, res.err = rep.Resp, sched.OK, nil
	default: // the frame arrived intact, so the connection stays usable
		res.err = fmt.Errorf("worker %s partition %d: %w", addr, u.Part, rep.Remote)
		switch rep.Remote.Code {
		case wire.ErrCanceled:
			res.outcome = sched.Canceled
		case wire.ErrJobFailed:
			res.outcome = sched.Fatal
		}
	}
	return false
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
// When ctx is canceled the dispatcher stops handing out work, ends
// every attempt in flight — its dial, or its wait for a reply, whose
// client it closes — waits for all its goroutines, and returns an error
// wrapping ctx's cause. A ctx deadline also tightens each job attempt's
// deadline, so per-job deadlines flow from context.WithDeadline rather
// than a bespoke field.
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
// on the same connections. A call holds one client per worker, taken
// warm from an earlier call or dialed, and leaves the healthy ones warm
// for the next: a failure-free batch dials each worker at most once,
// and a call after it none (a transport failure drops that worker's
// client, so recovery adds redials).
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
	legs := make([]leg, k)
	var wg sync.WaitGroup
	defer func() {
		cancelAttempts() // ends every attempt in flight, closing its client
		wg.Wait()
		ms.release(legs)
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
		// The deferred cleanup ends every attempt in flight, closing its
		// client, and waits for the attempts to return.
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
				results <- ms.runJob(attempts, d.Worker, jobs[d.Unit.Job], d.Unit, &legs[d.Worker])
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
			// tightened to the ctx deadline, and the attempt's context can
			// end a beat before the caller's own. Wait for the (imminent)
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
				if n := legs[nj].cancel(); n > 0 {
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

// Package sched is the master's scheduling policy: which worker runs
// which plan-space partition, and when. Partitions are disjoint and
// workers stateless, so that question is pure policy, separable from
// the transport that carries a request and from the clock that times
// it (Garofalakis & Ioannidis: a list-scheduling policy over abstract
// resources). internal/netrun's package comment describes the policy as
// an operator sees it.
//
// Core is a deterministic, single-threaded state machine. Its driver
// feeds it events — what time it is, what a worker reported — and
// executes the actions it answers with. It does no I/O, starts no
// goroutine and never reads a clock, so the TCP master (internal/netrun,
// wall clock) and the cluster simulator (internal/cluster, virtual
// clock) run the identical policy, and a recorded run replays to the
// identical action sequence.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Defaults for Config fields left at zero.
const (
	DefaultMaxAttempts       = 3
	DefaultMaxWorkerFailures = 2
	// A partition is a straggler once it has been in flight twice the
	// median service time of its job's completed partitions, ...
	DefaultSpeculationMultiplier = 2
	// ... but never sooner than this: near-instant medians (tiny queries)
	// must not trigger speculation on ordinary scheduling jitter.
	DefaultSpeculationFloor = 250 * time.Millisecond
)

// Config is the master's policy — the one description of it, shared by
// every driver: netrun.Options is this type, cluster.Faults carries one,
// and the CLIs' policy flags bind straight into one. Zero fields mean
// their defaults; Validate rejects the rest.
type Config struct {
	// Weights are per-worker performance weights: when there are more
	// plan-space partitions than workers, worker i is assigned a
	// contiguous share of every job's partitions proportional to
	// Weights[i] — the paper's provision for heterogeneous nodes (§4.1,
	// footnote 1). nil means homogeneous (round-robin); otherwise one
	// positive weight per worker.
	Weights []float64
	// Timeout is the per-attempt deadline. The driver enforces it on its
	// own clock and reports an attempt that crosses it to the core as
	// Failed: the TCP master bounds dial, send, worker compute and receive
	// end to end (a shorter context deadline takes precedence), the
	// simulator declares a silent node dead this long after its request
	// arrived. Zero means the driver's default (netrun.DefaultTimeout,
	// cluster.DefaultDetectTimeout); negative is an error.
	Timeout time.Duration
	// MaxAttempts is the per-partition attempt budget: a partition that
	// fails this many times (across all workers) aborts the batch with a
	// *BudgetError. Zero means DefaultMaxAttempts; negative is an error.
	MaxAttempts int
	// MaxWorkerFailures is the number of consecutive transport failures
	// after which a worker is excluded from the rest of the batch. Zero
	// means DefaultMaxWorkerFailures; negative is an error.
	MaxWorkerFailures int
	// Speculate enables adaptive scheduling: an idle worker steals queued
	// partitions from loaded peers, and a partition in flight longer than
	// max(SpeculationFloor, SpeculationMultiplier × the median service
	// time of its job's completed partitions) is cloned to an idle
	// worker. The first answer wins; the loser is canceled and whatever
	// it still sends is discarded as stale. Off by default: the schedule
	// is then the static assignment plus retries.
	Speculate bool
	// SpeculationMultiplier scales the straggler threshold. Zero means
	// DefaultSpeculationMultiplier; values below 1 (which would speculate
	// faster-than-median partitions) are an error.
	SpeculationMultiplier float64
	// SpeculationFloor bounds the straggler threshold from below. Zero
	// means DefaultSpeculationFloor; negative is an error.
	SpeculationFloor time.Duration
	// ReadmitAfter enables re-admission probes: an excluded worker is
	// sent a probe clone of a pending partition after this backoff
	// (doubling after every failed probe) and rejoins the pool if it
	// answers correctly. Zero leaves excluded workers excluded for the
	// rest of the batch; negative is an error.
	ReadmitAfter time.Duration
}

// Validate checks the policy for a pool of the given size. Errors carry
// no package prefix: the caller adds its own.
func (c Config) Validate(workers int) error {
	if workers < 1 {
		return errors.New("no workers")
	}
	if c.Weights != nil {
		if len(c.Weights) != workers {
			return fmt.Errorf("%d weights for %d workers", len(c.Weights), workers)
		}
		for i, w := range c.Weights {
			if !(w > 0) {
				return fmt.Errorf("weight %d is %g, must be positive", i, w)
			}
		}
	}
	if c.Timeout < 0 {
		return fmt.Errorf("negative timeout %v", c.Timeout)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("negative attempt budget %d", c.MaxAttempts)
	}
	if c.MaxWorkerFailures < 0 {
		return fmt.Errorf("negative worker failure limit %d", c.MaxWorkerFailures)
	}
	if c.SpeculationMultiplier != 0 && c.SpeculationMultiplier < 1 {
		return fmt.Errorf("speculation multiplier %g below 1", c.SpeculationMultiplier)
	}
	if c.SpeculationFloor < 0 {
		return fmt.Errorf("negative speculation floor %v", c.SpeculationFloor)
	}
	if c.ReadmitAfter < 0 {
		return fmt.Errorf("negative re-admission backoff %v", c.ReadmitAfter)
	}
	return nil
}

// WithDefaults returns c with every zero field the core reads replaced
// by its default (Timeout's default is its driver's).
func (c Config) WithDefaults() Config {
	c.MaxAttempts = cmp.Or(c.MaxAttempts, DefaultMaxAttempts)
	c.MaxWorkerFailures = cmp.Or(c.MaxWorkerFailures, DefaultMaxWorkerFailures)
	c.SpeculationMultiplier = cmp.Or(c.SpeculationMultiplier, DefaultSpeculationMultiplier)
	c.SpeculationFloor = cmp.Or(c.SpeculationFloor, DefaultSpeculationFloor)
	return c
}

// assign splits partition IDs 0..m-1 over k workers. With nil weights
// it round-robins; with weights it hands out contiguous shares
// proportional to each worker's weight (largest-remainder rounding).
func (c Config) assign(k, m int) [][]int {
	out := make([][]int, k)
	if c.Weights == nil {
		for p := 0; p < m; p++ {
			out[p%k] = append(out[p%k], p)
		}
		return out
	}
	var total float64
	for _, w := range c.Weights {
		total += w
	}
	counts := make([]int, k)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, k)
	assigned := 0
	for i, w := range c.Weights {
		exact := float64(m) * w / total
		counts[i] = int(exact)
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
		assigned += counts[i]
	}
	sort.Slice(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < m; i++ {
		counts[rems[i%k].idx]++
		assigned++
	}
	p := 0
	for i, n := range counts {
		for j := 0; j < n; j++ {
			out[i] = append(out[i], p)
			p++
		}
	}
	return out
}

// Unit names one piece of work: partition Part of the batch's job Job.
type Unit struct {
	Job, Part int
}

// Outcome classifies what a worker reported for its in-flight request.
type Outcome uint8

const (
	// OK: a correct answer arrived.
	OK Outcome = iota
	// Canceled: the worker acknowledged a cancel.
	Canceled
	// Fatal: a deterministic failure every worker would repeat.
	Fatal
	// Failed: a transport-level failure (dead, hung or garbling worker);
	// the partition can be retried elsewhere.
	Failed
)

// Event is one input to the core, observed by the driver at offset Now
// from the start of the batch: the Outcome of the request in flight on
// Worker after Elapsed of service, or — Worker negative — nothing but
// the passage of time (the first event of a batch, or a Wake firing).
type Event struct {
	Now     time.Duration
	Worker  int
	Outcome Outcome
	Elapsed time.Duration
}

// Tick is the event of the clock reaching now.
func Tick(now time.Duration) Event { return Event{Now: now, Worker: -1} }

// Dispatch asks the driver to send Unit to Worker. Probe marks a
// re-admission probe of an excluded worker.
type Dispatch struct {
	Worker int
	Unit   Unit
	Probe  bool
}

// Actions is what the driver must do after a step, in field order.
type Actions struct {
	// Accepted reports that the step's outcome is its partition's answer:
	// the driver keeps the response. Any other outcome is discarded.
	Accepted bool
	// JobDone reports that the accepted answer was its job's last.
	JobDone bool
	// Cancel lists the workers whose in-flight request just lost a race.
	Cancel []int
	// Dispatch lists the requests to send.
	Dispatch []Dispatch
	// Wake, when nonzero, is the earliest instant at which a Tick would
	// act — a straggler threshold crossing or a probe backoff expiring.
	Wake time.Duration
	// Done reports that every partition of every job is answered.
	Done bool
}

// Counters are what the policy did for one job, carried whole by both
// drivers: in core.NetStats (TCP) and core.ClusterMetrics (simulator).
type Counters struct {
	// Redispatched counts attempts that failed at the transport level and
	// were re-queued (zero in a failure-free run).
	Redispatched int
	// Speculations counts speculative clones dispatched: a partition past
	// the straggler threshold re-sent to an idle worker, the first answer
	// winning. Zero unless Config.Speculate.
	Speculations int
	// SpeculationWasted counts discarded race outcomes: a response for a
	// partition the other racer already answered, or the loser's cancel
	// acknowledgment — the audited price of the latency win.
	SpeculationWasted int
	// Probes counts re-admission probes: after Config.ReadmitAfter of
	// exclusion, a pending partition cloned to the excluded worker.
	Probes int
	// Readmitted counts excluded workers that answered a probe correctly
	// and rejoined the pool.
	Readmitted int
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Redispatched += o.Redispatched
	c.Speculations += o.Speculations
	c.SpeculationWasted += o.SpeculationWasted
	c.Probes += o.Probes
	c.Readmitted += o.Readmitted
}

// ErrFatal is returned when a worker reports a deterministic failure
// for a partition that has no answer yet: retrying cannot help.
var ErrFatal = errors.New("deterministic job failure")

// BudgetError reports a partition that used up its attempt budget.
type BudgetError struct {
	Unit     Unit
	Attempts int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("partition %d failed %d times, giving up", e.Unit.Part, e.Attempts)
}

// unit is a Unit with its retry state.
type unit struct {
	Unit
	attempts int   // failed attempts so far
	failedOn []int // workers that already failed it
}

type job struct {
	done      []bool
	inflight  []int // copies in flight, per partition
	remaining int
	// svc holds the completed partitions' service times in ascending
	// order; threshold is the straggler bar derived from their median,
	// recomputed once per completion and zero until the first one — with
	// no baseline there is no notion of "slow".
	svc       []time.Duration
	threshold time.Duration
	n         Counters
}

type worker struct {
	queue       []unit
	alive       bool
	busy        bool
	probing     bool // the request in flight is a probe
	running     unit
	since       time.Duration
	consecFails int
	excludedAt  time.Duration
	backoff     time.Duration
}

// Core is the scheduling state machine of one batch.
type Core struct {
	cfg         Config
	jobs        []job
	workers     []worker
	retry       []unit
	total       int
	unanswered  int
	alive       int
	outstanding int
}

// New returns the core for a batch whose job j has parts[j] partitions,
// run by the given number of workers under cfg, with every worker's
// queue seeded with its share of every job.
func New(workers int, cfg Config, parts []int) (*Core, error) {
	if err := cfg.Validate(workers); err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg.WithDefaults(), jobs: make([]job, len(parts)), workers: make([]worker, workers), alive: workers}
	for i := range c.workers {
		c.workers[i].alive = true
	}
	for j, m := range parts {
		c.jobs[j] = job{done: make([]bool, m), inflight: make([]int, m), remaining: m}
		for ni, share := range c.cfg.assign(workers, m) {
			for _, p := range share {
				c.workers[ni].queue = append(c.workers[ni].queue, unit{Unit: Unit{Job: j, Part: p}})
			}
		}
		c.total += m
	}
	c.unanswered = c.total
	return c, nil
}

// Counters returns job j's counters so far.
func (c *Core) Counters(j int) Counters { return c.jobs[j].n }

// Step feeds the core one event and returns what the driver must do.
func (c *Core) Step(ev Event) (Actions, error) {
	var act Actions
	if ev.Worker >= 0 {
		if ev.Worker >= len(c.workers) || !c.workers[ev.Worker].busy {
			return act, fmt.Errorf("worker %d reported with nothing in flight", ev.Worker)
		}
		if err := c.absorb(ev, &act); err != nil {
			return act, err
		}
	}
	return act, c.advance(ev.Now, &act)
}

// absorb applies one reported outcome to the state.
func (c *Core) absorb(ev Event, act *Actions) error {
	now, ni := ev.Now, ev.Worker
	w := &c.workers[ni]
	u, wasProbe := w.running, w.probing
	w.busy, w.probing = false, false
	c.outstanding--
	jb := &c.jobs[u.Job]
	jb.inflight[u.Part]--
	// stale: another copy of this partition already won the race;
	// whatever this attempt brought back is redundant by construction.
	stale := jb.done[u.Part]

	switch ev.Outcome {
	case OK:
		w.consecFails = 0
		if wasProbe && !w.alive {
			w.alive = true
			c.alive++
			jb.n.Readmitted++
		}
		if stale {
			// The loser finished anyway (the cancel lost its own race with
			// the response): correct but redundant.
			jb.n.SpeculationWasted++
			return nil
		}
		jb.done[u.Part] = true
		jb.remaining--
		c.unanswered--
		jb.observe(ev.Elapsed, c.cfg)
		act.Accepted, act.JobDone = true, jb.remaining == 0
		if jb.inflight[u.Part] > 0 {
			for nj := range c.workers {
				if r := &c.workers[nj]; r.busy && r.running.Unit == u.Unit {
					act.Cancel = append(act.Cancel, nj)
				}
			}
		}
		return nil
	case Canceled:
		// A cancel acknowledgment is benign: no penalty for the worker.
		jb.n.SpeculationWasted++
		if wasProbe {
			// The probe's partition finished elsewhere first. That proves
			// nothing about the worker's health: try again one backoff on.
			w.excludedAt = now
			return nil
		}
		if stale {
			return nil
		}
		// A worker canceled a job the master still wants — spurious, but
		// recoverable under the attempt budget.
		return c.requeue(u, ni)
	case Fatal:
		if stale {
			// A race's loser may legitimately error out mid-abort; its
			// partition already has a correct answer.
			jb.n.SpeculationWasted++
			return nil
		}
		return ErrFatal
	}
	// Transport failure: hold the worker accountable.
	w.consecFails++
	if w.alive && w.consecFails >= c.cfg.MaxWorkerFailures {
		w.alive = false
		c.alive--
		w.excludedAt, w.backoff = now, c.cfg.ReadmitAfter
		// Hand the excluded worker's untouched share to the survivors.
		c.retry = append(c.retry, w.queue...)
		w.queue = nil
	}
	if wasProbe {
		// A failed probe: stay excluded and back off harder. The probe was
		// a clone, so its original is still queued or running.
		w.excludedAt = now
		w.backoff *= 2
		return nil
	}
	if stale {
		// The loser's connection died — often the cancel itself tearing
		// it down. The consecutive-failure penalty above stands.
		jb.n.SpeculationWasted++
		return nil
	}
	return c.requeue(u, ni)
}

// observe records one completed partition's service time and refreshes
// the job's straggler threshold.
func (jb *job) observe(elapsed time.Duration, cfg Config) {
	i, _ := slices.BinarySearch(jb.svc, elapsed)
	jb.svc = slices.Insert(jb.svc, i, elapsed)
	median := jb.svc[len(jb.svc)/2]
	jb.threshold = max(time.Duration(float64(median)*cfg.SpeculationMultiplier), cfg.SpeculationFloor)
}

// requeue puts a unit that failed on worker ni back for another attempt.
func (c *Core) requeue(u unit, ni int) error {
	u.attempts++
	u.failedOn = append(slices.Clone(u.failedOn), ni)
	if u.attempts >= c.cfg.MaxAttempts {
		return &BudgetError{Unit: u.Unit, Attempts: u.attempts}
	}
	c.jobs[u.Job].n.Redispatched++
	c.retry = append(c.retry, u)
	return nil
}

// advance dispatches whatever can be dispatched at now and computes the
// next wake.
func (c *Core) advance(now time.Duration, act *Actions) error {
	if c.unanswered == 0 {
		act.Done = true
		return nil
	}
	if c.alive == 0 {
		return fmt.Errorf("all %d workers failed with %d of %d partitions unanswered",
			len(c.workers), c.unanswered, c.total)
	}
	c.dispatch(now, act)
	if c.outstanding == 0 {
		// Unreachable while a worker is alive: an idle survivor always
		// accepts pending work. Guard against coordination bugs anyway.
		return fmt.Errorf("stalled with %d of %d partitions unanswered", c.unanswered, c.total)
	}
	act.Wake = c.nextWake()
	return nil
}

func (c *Core) isDone(u unit) bool { return c.jobs[u.Job].done[u.Part] }

// pop removes and returns the first unanswered unit of worker ni's queue.
func (c *Core) pop(ni int) (unit, bool) {
	q := &c.workers[ni].queue
	for len(*q) > 0 {
		u := (*q)[0]
		*q = (*q)[1:]
		if !c.isDone(u) {
			return u, true
		}
	}
	return unit{}, false
}

// popRetry removes and returns the first retry unit worker ni may run:
// one it has not failed, or one every surviving worker has failed (any
// survivor may then retry it; the alternative is giving up while budget
// remains).
func (c *Core) popRetry(ni int) (unit, bool) {
	for i, r := range c.retry {
		if !slices.Contains(r.failedOn, ni) || c.failedOnAllAlive(r) {
			c.retry = slices.Delete(c.retry, i, i+1)
			return r, true
		}
	}
	return unit{}, false
}

func (c *Core) failedOnAllAlive(u unit) bool {
	for ni := range c.workers {
		if c.workers[ni].alive && !slices.Contains(u.failedOn, ni) {
			return false
		}
	}
	return true
}

// longestQueue returns the worker other than skip with the most queued
// units, or -1 if every other queue is empty.
func (c *Core) longestQueue(skip int) int {
	best := -1
	for nj := range c.workers {
		if n := len(c.workers[nj].queue); nj != skip && n > 0 && (best < 0 || n > len(c.workers[best].queue)) {
			best = nj
		}
	}
	return best
}

// crossing returns the instant the unit on worker nj becomes a
// straggler worth cloning, or zero if it never will: the worker is idle
// or runs a probe (already a clone), the unit is answered or already
// raced, or its job has no completed partition to set a threshold by.
func (c *Core) crossing(nj int) time.Duration {
	w := &c.workers[nj]
	if !w.busy || w.probing || c.isDone(w.running) {
		return 0
	}
	jb := &c.jobs[w.running.Job]
	if jb.inflight[w.running.Part] != 1 || jb.threshold == 0 {
		return 0
	}
	return w.since + jb.threshold
}

// straggler picks what an idle worker should clone at now: of the units
// that have crossed, the one in flight longest. -1 if none has.
func (c *Core) straggler(now time.Duration) int {
	best := -1
	for nj := range c.workers {
		at := c.crossing(nj)
		if at != 0 && at <= now && (best < 0 || c.workers[nj].since < c.workers[best].since) {
			best = nj
		}
	}
	return best
}

// probeUnit picks the clone for a re-admission probe of worker ni: the
// head of the longest queue, else a retry unit ni has not failed, else
// the oldest unit in flight. The original stays where it is; whichever
// copy answers second is classified stale.
func (c *Core) probeUnit(ni int) (unit, bool) {
	if nj := c.longestQueue(-1); nj >= 0 {
		for _, u := range c.workers[nj].queue {
			if !c.isDone(u) {
				return u, true
			}
		}
	}
	for _, r := range c.retry {
		if !c.isDone(r) && !slices.Contains(r.failedOn, ni) {
			return r, true
		}
	}
	oldest := -1
	for nj := range c.workers {
		w := &c.workers[nj]
		if nj == ni || !w.busy || w.probing || c.isDone(w.running) {
			continue
		}
		if oldest < 0 || w.since < c.workers[oldest].since {
			oldest = nj
		}
	}
	if oldest >= 0 {
		return c.workers[oldest].running, true
	}
	return unit{}, false
}

func (c *Core) send(now time.Duration, ni int, u unit, probe bool, act *Actions) {
	w := &c.workers[ni]
	w.busy, w.probing, w.running, w.since = true, probe, u, now
	c.outstanding++
	c.jobs[u.Job].inflight[u.Part]++
	act.Dispatch = append(act.Dispatch, Dispatch{Worker: ni, Unit: u.Unit, Probe: probe})
}

func (c *Core) dispatch(now time.Duration, act *Actions) {
	// Partitions answered by a winning clone may still sit in the retry
	// queue (worker queues purge on pop).
	c.retry = slices.DeleteFunc(c.retry, c.isDone)
	for ni := range c.workers {
		if w := &c.workers[ni]; !w.alive || w.busy {
			continue
		}
		u, ok := c.pop(ni)
		if !ok {
			u, ok = c.popRetry(ni)
		}
		if !ok && c.cfg.Speculate {
			// Work stealing: an idle worker drains the most loaded peer's
			// queue instead of watching it struggle.
			if src := c.longestQueue(ni); src >= 0 {
				u, ok = c.pop(src)
			}
		}
		if ok {
			c.send(now, ni, u, false, act)
			continue
		}
		if !c.cfg.Speculate {
			continue
		}
		if nj := c.straggler(now); nj >= 0 {
			orig := c.workers[nj].running
			orig.failedOn = append(slices.Clone(orig.failedOn), nj)
			c.jobs[orig.Job].n.Speculations++
			c.send(now, ni, orig, false, act)
		}
	}
	if c.cfg.ReadmitAfter == 0 {
		return
	}
	for ni := range c.workers {
		w := &c.workers[ni]
		if w.alive || w.busy || now-w.excludedAt < w.backoff {
			continue
		}
		if u, ok := c.probeUnit(ni); ok {
			c.jobs[u.Job].n.Probes++
			c.send(now, ni, u, true, act)
		} else {
			// Nothing to probe with; look again one backoff from now.
			w.excludedAt = now
		}
	}
}

// nextWake mirrors dispatch's eligibility rules exactly: it names an
// instant only if dispatch would act at it — a wake into a dispatch that
// refuses to act would make the driver busy-loop. Zero means none;
// thresholds and backoffs are positive, so a real wake never is.
func (c *Core) nextWake() time.Duration {
	var wake time.Duration
	earlier := func(t time.Duration) {
		if wake == 0 || t < wake {
			wake = t
		}
	}
	idleSurvivor := func(w worker) bool { return w.alive && !w.busy }
	if c.cfg.Speculate && slices.ContainsFunc(c.workers, idleSurvivor) {
		for nj := range c.workers {
			if at := c.crossing(nj); at != 0 {
				earlier(at)
			}
		}
	}
	if c.cfg.ReadmitAfter > 0 {
		for ni := range c.workers {
			if w := &c.workers[ni]; !w.alive && !w.busy {
				earlier(w.excludedAt + w.backoff)
			}
		}
	}
	return wake
}

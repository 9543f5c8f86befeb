package cluster

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"time"

	"mpq/internal/sched"
	"mpq/internal/wire"
)

// This file is the simulator's one virtual-time schedule: the cost
// model of the cluster — NIC serialization, latency, task setup,
// per-worker compute, stalls, deaths — wrapped around the
// scheduling policy the TCP master runs (internal/sched), stepped on a
// virtual clock. It decides nothing itself: every request it simulates
// was dispatched, and every cancel issued, by the policy core. The
// paper's one-node-per-partition experiment is the input Nodes = 0, not
// a separate path.

// DefaultStallFactor is the compute slowdown of a node listed in
// Faults.Stalled when StallFactor is zero.
const DefaultStallFactor = 100

// Sizes of the two control frames of a speculative race, taken from the
// encoder like every other simulated message: the master's cancel and
// the loser's acknowledgment.
var (
	cancelFrameBytes = len(wire.EncodeCancelRequest(&wire.CancelRequest{}))
	cancelAckBytes   = len(wire.EncodeWorkerError(&wire.WorkerError{Code: wire.ErrCanceled, Msg: wire.CanceledMsg}))
)

// simInput is the per-partition data the schedule needs: exact message
// sizes and the DP's work meter.
type simInput struct {
	reqBytes  []int
	respBytes []int
	units     []uint64
}

// simOutcome aggregates what the event simulation measured.
type simOutcome struct {
	total     time.Duration // master-observed completion of the last partition
	maxWorker time.Duration // slowest node's busy compute time
	bytes     uint64
	messages  int
	wasted    uint64         // work units burned by race losers
	counters  sched.Counters // what the policy core did
	copies    []simCopy      // every request sent, in dispatch order
}

// simCopy is one request the policy dispatched: an original, a retry
// after a detected death, or a speculative clone.
type simCopy struct {
	part       int
	node       int
	dispatched time.Duration // when the policy issued it: service time runs from here
	arrive     time.Duration // request arrival at the node
	start      time.Duration // compute start (post task setup)
	finish     time.Duration // compute completion at the node
	canceled   bool          // a cancel reached the node before it finished
	gen        int           // invalidates the arrival scheduled before the cancel
}

const (
	evArrive  = iota // a response or cancel acknowledgment reached the master NIC
	evDeliver        // the master finished receiving it
	evDetect         // a dead node's silence crossed the detection timeout
)

type simEvent struct {
	t    time.Duration
	kind int
	copy int
	gen  int
}

// eventQueue is a min-heap of pending events on the total key (time,
// kind, copy index), which makes the simulation deterministic.
type eventQueue []simEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.kind, b.kind), cmp.Compare(a.copy, b.copy)) < 0
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(e any)   { *q = append(*q, e.(simEvent)) }
func (q *eventQueue) Pop() any {
	last := len(*q) - 1
	e := (*q)[last]
	*q = (*q)[:last]
	return e
}

// schedule runs the event-driven simulation. Everything is
// deterministic: events are totally ordered and the policy core is
// deterministic by construction.
func (m Model) schedule(in simInput, f Faults) (simOutcome, error) {
	nParts := len(in.units)
	n := cmp.Or(m.Nodes, nParts)
	detect := cmp.Or(f.Policy.Timeout, DefaultDetectTimeout)
	stallFactor := cmp.Or(f.StallFactor, DefaultStallFactor)
	dead := func(ni int) bool { return slices.Contains(f.Dead, ni) }
	// The master knows nothing of faults: dead and stalled nodes get
	// their share like everyone else.
	policy, err := sched.New(n, f.Policy, []int{nParts})
	if err != nil {
		return simOutcome{}, fmt.Errorf("cluster: %w", err)
	}

	// perUnit is a node's compute time for one work unit: the model's
	// rate, inflated on a stalled node.
	perUnit := func(ni int) float64 {
		if slices.Contains(f.Stalled, ni) {
			return m.NsPerWorkUnit * stallFactor
		}
		return m.NsPerWorkUnit
	}
	transfer := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / m.Bandwidth * float64(time.Second))
	}

	var out simOutcome
	var events eventQueue

	inFlight := make([]int, n) // the copy each node's one request slot holds
	busy := make([]time.Duration, n)
	var sendFree, recvFree time.Duration
	// send puts one dispatched request on the wire: the master NIC
	// serializes it behind earlier sends, and the node — idle, because the
	// policy keeps one request in flight per worker — starts computing
	// one task setup after it arrives. A dead node never answers; its
	// silence becomes a transport failure at the detection timeout.
	send := func(d sched.Dispatch, now time.Duration) {
		part, ni := d.Unit.Part, d.Worker
		sendFree = max(sendFree, now) + m.DispatchPerTask + transfer(in.reqBytes[part])
		c := simCopy{part: part, node: ni, dispatched: now, arrive: sendFree + m.Latency}
		c.start = c.arrive + m.TaskSetup
		c.finish = c.start + time.Duration(float64(in.units[part])*perUnit(ni))
		ci := len(out.copies)
		out.copies = append(out.copies, c)
		inFlight[ni] = ci
		out.bytes += uint64(in.reqBytes[part])
		out.messages++
		if dead(ni) {
			heap.Push(&events, simEvent{t: c.arrive + detect, kind: evDetect, copy: ci})
		} else {
			busy[ni] += c.finish - c.start
			heap.Push(&events, simEvent{t: c.finish + m.Latency, kind: evArrive, copy: ci})
		}
	}
	// cancel sends the loser of a race its cancel frame. If the frame
	// lands after the node finished, the response is already on the wire
	// and will be delivered (and discarded as stale); otherwise the node
	// stops where it is and acknowledges. Either way the compute it
	// burned is wasted work.
	cancel := func(ni int, now time.Duration) {
		out.bytes += uint64(cancelFrameBytes)
		out.messages++
		c := &out.copies[inFlight[ni]]
		lands := max(now+m.Latency, c.arrive)
		if dead(ni) {
			return
		}
		if lands >= c.finish {
			out.wasted += in.units[c.part]
			return
		}
		c.canceled = true
		c.gen++
		if lands > c.start {
			burned := uint64(float64(lands-c.start) / perUnit(ni))
			out.wasted += min(burned, in.units[c.part])
		}
		busy[ni] -= c.finish - max(lands, c.start)
		heap.Push(&events, simEvent{t: lands + m.Latency, kind: evArrive, copy: inFlight[ni], gen: c.gen})
	}

	// step feeds the policy one event and executes what it answers.
	var act sched.Actions
	step := func(ev sched.Event) (err error) {
		if act, err = policy.Step(ev); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		for _, ni := range act.Cancel {
			cancel(ni, ev.Now)
		}
		for _, d := range act.Dispatch {
			send(d, ev.Now)
		}
		return nil
	}
	err = step(sched.Tick(0))
	for err == nil && !act.Done {
		if act.Wake > 0 && (len(events) == 0 || act.Wake < events[0].t) {
			err = step(sched.Tick(act.Wake))
			continue
		}
		if len(events) == 0 {
			return simOutcome{}, errors.New("cluster: schedule stalled with nothing in flight")
		}
		e := heap.Pop(&events).(simEvent)
		c := &out.copies[e.copy]
		if e.gen != c.gen {
			continue // the arrival a cancel replaced
		}
		switch e.kind {
		case evArrive:
			// The master NIC receives one frame at a time.
			size := in.respBytes[c.part]
			if c.canceled {
				size = cancelAckBytes
			}
			recvFree = max(e.t, recvFree) + transfer(size)
			out.bytes += uint64(size)
			out.messages++
			heap.Push(&events, simEvent{t: recvFree, kind: evDeliver, copy: e.copy, gen: e.gen})
		case evDeliver, evDetect:
			ev := sched.Event{Now: e.t, Worker: c.node, Outcome: sched.OK, Elapsed: e.t - c.dispatched}
			switch {
			case e.kind == evDetect:
				ev.Outcome = sched.Failed
			case c.canceled:
				ev.Outcome = sched.Canceled
			}
			if err = step(ev); act.Accepted {
				out.total = e.t
			}
		}
	}
	if err != nil {
		return simOutcome{}, err
	}
	out.counters = policy.Counters(0)
	for _, b := range busy {
		out.maxWorker = max(out.maxWorker, b)
	}
	return out, nil
}

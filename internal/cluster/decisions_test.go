package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpq/internal/sched"
	"mpq/internal/wire"
)

// nonDefaultPolicy sets every policy field the straggler script leaves
// at its default. internal/netrun's TestRecordedRunReplaysThroughCore
// gives the TCP master the same value, field for field.
var nonDefaultPolicy = sched.Config{
	Timeout: 30 * time.Second, MaxAttempts: 2, MaxWorkerFailures: 1, ReadmitAfter: time.Minute,
	Speculate: true, SpeculationFloor: 150 * time.Millisecond,
}

// The simulator makes no scheduling decision of its own. The straggler
// script internal/netrun's TestRecordedRunReplaysThroughCore records
// over TCP — two workers, four partitions, worker 0 stalls on its first
// request — runs here through the simulator's cost model, under the same
// two policies, and every request it simulated must be one of the same
// decisions: which partition went to which worker in which order, which
// one was cloned, who was canceled — and what the policy reports it did
// must be the same sched.Counters value. That test's second script — two
// adjacent deaths under nonDefaultPolicy — ends here in the same
// *sched.BudgetError text.
func TestSimulatorMakesTheMastersDecisions(t *testing.T) {
	model := Default()
	model.Nodes = 2
	in := simInput{
		reqBytes:  []int{300, 300, 300, 300},
		respBytes: []int{200, 200, 200, 200},
		units:     []uint64{1000, 1000, 1000, 1000},
	}
	for _, policy := range []sched.Config{
		{Timeout: 30 * time.Second, Speculate: true, SpeculationFloor: 150 * time.Millisecond},
		nonDefaultPolicy,
	} {
		out, err := model.schedule(in, Faults{Stalled: []int{0}, StallFactor: 1e4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		var dispatched, canceled []string
		for _, c := range out.copies {
			dispatched = append(dispatched, fmt.Sprintf("w%d<-p%d", c.node, c.part))
			if c.canceled {
				canceled = append(canceled, fmt.Sprintf("w%d", c.node))
			}
		}
		wantDispatched := []string{"w0<-p0", "w1<-p1", "w1<-p3", "w1<-p2", "w1<-p0"}
		wantCanceled := []string{"w0"}
		if !reflect.DeepEqual(dispatched, wantDispatched) || !reflect.DeepEqual(canceled, wantCanceled) {
			t.Fatalf("%+v: decisions: dispatched %v canceled %v, want %v and %v",
				policy, dispatched, canceled, wantDispatched, wantCanceled)
		}
		if want := (sched.Counters{Speculations: 1}); out.counters != want {
			t.Fatalf("%+v: counters %+v, want %+v", policy, out.counters, want)
		}
	}

	// Three nodes, the first two dead, one partition: it lands on node 0,
	// then on node 1, and an attempt budget of two is spent before the
	// survivor is asked. The default budget of three reaches node 2.
	model.Nodes = 3
	one := simInput{reqBytes: []int{300}, respBytes: []int{200}, units: []uint64{1000}}
	_, err := model.schedule(one, Faults{Dead: []int{0, 1}, Policy: nonDefaultPolicy})
	var budget *sched.BudgetError
	if want := "partition 0 failed 2 times, giving up"; !errors.As(err, &budget) || budget.Error() != want {
		t.Fatalf("two adjacent deaths: %v, want %q", err, want)
	}
	out, err := model.schedule(one, Faults{Dead: []int{0, 1}})
	if err != nil || len(out.copies) != 3 || out.copies[2].node != 2 {
		t.Fatalf("two adjacent deaths, default budget: copies %+v, error %v; want the third attempt on node 2", out.copies, err)
	}
}

// Race traffic is accounted at encoded length: a cancel frame when it
// is sent, the loser's ErrCanceled acknowledgment when the master reads
// it — exactly what the TCP master bills. Node 0 stalls on p0 and loses
// its race to a clone on node 1 while the long p2 is still running, so
// its acknowledgment is read; node 1 then clones p2, loses that race to
// the original, and the batch ends before its acknowledgment arrives.
func TestRaceTrafficIsByteExact(t *testing.T) {
	model := Default()
	model.Nodes = 3
	in := simInput{
		reqBytes:  []int{300, 300, 300},
		respBytes: []int{200, 200, 200},
		units:     []uint64{1000, 1000, 400000},
	}
	out, err := model.schedule(in, Faults{Stalled: []int{0}, StallFactor: 1e4, Policy: sched.Config{Speculate: true}})
	if err != nil {
		t.Fatal(err)
	}
	var canceled []int
	for ci, c := range out.copies {
		if c.canceled {
			canceled = append(canceled, ci)
		}
	}
	if out.counters.Speculations != 2 || len(out.copies) != 5 || !reflect.DeepEqual(canceled, []int{0, 4}) {
		t.Fatalf("expected two races lost by copies 0 and 4: %d speculations, copies %+v", out.counters.Speculations, out.copies)
	}
	cancelLen := len(wire.EncodeCancelRequest(&wire.CancelRequest{Seq: 7}))
	ackLen := len(wire.EncodeWorkerError(&wire.WorkerError{Seq: 7, Code: wire.ErrCanceled, Msg: wire.CanceledMsg}))
	if want := uint64(5*300 + 3*200 + 2*cancelLen + ackLen); out.bytes != want {
		t.Fatalf("bytes = %d, want %d (cancel %d, ack %d)", out.bytes, want, cancelLen, ackLen)
	}
	if want := 5 + 3 + 2 + 1; out.messages != want {
		t.Fatalf("messages = %d, want %d", out.messages, want)
	}
	if out.wasted == 0 || out.wasted >= in.units[0]+in.units[2] {
		t.Fatalf("wasted = %d work units, want the two losers' partial compute", out.wasted)
	}
}

package netrun

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/sched"
)

// The master decides nothing: a straggler run over real sockets is
// recorded at the point the master drives the scheduling core, the
// recorded (now, report) sequence is replayed into a fresh core, and the
// replay must answer with the identical actions, step for step. The
// chaos proxies count the requests that actually crossed the wire; they
// must be exactly the dispatches the core asked for — a request the
// master placed on its own would show up there and not in the trace.
//
// The script — two workers, four partitions, worker 0 stalls on its
// first request — is the one internal/cluster's
// TestSimulatorMakesTheMastersDecisions runs in virtual time, against
// the same decision list.
func TestRecordedRunReplaysThroughCore(t *testing.T) {
	q := gen(t, 8, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{{0: Stall}, nil})
	ms, err := NewMaster(addrs, Options{
		Timeout:          30 * time.Second,
		Speculate:        true,
		SpeculationFloor: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		ev  sched.Event
		act sched.Actions
	}
	var steps []step
	ms.trace = func(ev sched.Event, act sched.Actions) { steps = append(steps, step{ev, act}) }
	if _, err := ms.Optimize(context.Background(), q, spec); err != nil {
		t.Fatal(err)
	}

	replay, err := sched.New(ms.policy, []int{spec.Workers})
	if err != nil {
		t.Fatal(err)
	}
	sent := make([]int, len(addrs))
	var dispatched, canceled []string
	for i, s := range steps {
		act, err := replay.Step(s.ev)
		if err != nil {
			t.Fatalf("step %d: replay failed: %v", i, err)
		}
		if !reflect.DeepEqual(act, s.act) {
			t.Fatalf("step %d: replay answered %+v, the run recorded %+v", i, act, s.act)
		}
		for _, d := range act.Dispatch {
			sent[d.Worker]++
			dispatched = append(dispatched, fmt.Sprintf("w%d<-p%d", d.Worker, d.Unit.Part))
		}
		for _, ni := range act.Cancel {
			canceled = append(canceled, fmt.Sprintf("w%d", ni))
		}
	}
	for ni, p := range proxies {
		if got := p.Jobs(); got != sent[ni] {
			t.Fatalf("worker %d saw %d requests, the core dispatched %d", ni, got, sent[ni])
		}
	}
	// Worker 1 drains its own queue, steals worker 0's, then clones the
	// stalled partition and wins the race.
	wantDispatched := []string{"w0<-p0", "w1<-p1", "w1<-p3", "w1<-p2", "w1<-p0"}
	wantCanceled := []string{"w0"}
	if !reflect.DeepEqual(dispatched, wantDispatched) || !reflect.DeepEqual(canceled, wantCanceled) {
		t.Fatalf("decisions: dispatched %v canceled %v, want %v and %v",
			dispatched, canceled, wantDispatched, wantCanceled)
	}
}

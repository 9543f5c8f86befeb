package netrun

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/sched"
)

// nonDefaultPolicy sets every policy field the straggler script leaves
// at its default. internal/cluster's
// TestSimulatorMakesTheMastersDecisions gives the simulated master the
// same value, field for field.
var nonDefaultPolicy = Options{
	Timeout: 30 * time.Second, MaxAttempts: 2, MaxWorkerFailures: 1, ReadmitAfter: time.Minute,
	Speculate: true, SpeculationFloor: 150 * time.Millisecond,
}

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
// the same decision list and the same sched.Counters value, under the
// same two policies; so is the second
// script, two adjacent deaths under nonDefaultPolicy, and the
// *sched.BudgetError text it ends in.
func TestRecordedRunReplaysThroughCore(t *testing.T) {
	q := gen(t, 8, 7)
	spec := core.JobSpec{Space: partition.Linear, Workers: 4}
	for _, opts := range []Options{
		{Timeout: 30 * time.Second, Speculate: true, SpeculationFloor: 150 * time.Millisecond},
		nonDefaultPolicy,
	} {
		addrs, proxies := startChaosWorkers(t, 2, []FaultPlan{{0: Stall}, nil})
		ms, err := NewMaster(addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		type step struct {
			ev  sched.Event
			act sched.Actions
		}
		var steps []step
		ms.trace = func(ev sched.Event, act sched.Actions) { steps = append(steps, step{ev, act}) }
		ans, err := ms.Optimize(context.Background(), q, spec)
		if err != nil {
			t.Fatal(err)
		}

		replay, err := sched.New(len(addrs), ms.opts, []int{spec.Workers})
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
			t.Fatalf("%+v: decisions: dispatched %v canceled %v, want %v and %v",
				opts, dispatched, canceled, wantDispatched, wantCanceled)
		}
		if want := (sched.Counters{Speculations: 1}); ans.Net.Counters != want {
			t.Fatalf("%+v: counters %+v, want %+v", opts, ans.Net.Counters, want)
		}
	}

	// Three workers, the first two die on their first request, one
	// partition: it lands on worker 0, then on worker 1, and an attempt
	// budget of two is spent before the survivor is asked.
	addrs, _ := startChaosWorkers(t, 3, []FaultPlan{{0: KillBeforeResponse}, {0: KillBeforeResponse}, nil})
	ms, err := NewMaster(addrs, nonDefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched []string
	ms.trace = func(_ sched.Event, act sched.Actions) {
		for _, d := range act.Dispatch {
			dispatched = append(dispatched, fmt.Sprintf("w%d<-p%d", d.Worker, d.Unit.Part))
		}
	}
	_, err = ms.Optimize(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 1})
	if want := "partition 0 failed 2 times, giving up"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("two adjacent deaths: %v, want %q", err, want)
	}
	if want := []string{"w0<-p0", "w1<-p0"}; !reflect.DeepEqual(dispatched, want) {
		t.Fatalf("two adjacent deaths: dispatched %v, want %v", dispatched, want)
	}
}

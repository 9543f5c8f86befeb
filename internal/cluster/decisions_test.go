package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mpq/internal/wire"
)

// The simulator makes no scheduling decision of its own. The straggler
// script internal/netrun's TestRecordedRunReplaysThroughCore records
// over TCP — two workers, four partitions, worker 0 stalls on its first
// request — runs here through the simulator's cost model, and every
// request it simulated must be one of the same decisions: which
// partition went to which worker in which order, which one was cloned,
// who was canceled.
func TestSimulatorMakesTheMastersDecisions(t *testing.T) {
	model := Default()
	model.Nodes = 2
	in := simInput{
		reqBytes:  []int{300, 300, 300, 300},
		respBytes: []int{200, 200, 200, 200},
		units:     []uint64{1000, 1000, 1000, 1000},
		memo:      []uint64{10, 10, 10, 10},
	}
	out, err := model.schedule(in, Faults{
		Stalled: []int{0}, StallFactor: 1e4, Speculate: true, SpecFloor: 150 * time.Millisecond,
	})
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
		t.Fatalf("decisions: dispatched %v canceled %v, want %v and %v",
			dispatched, canceled, wantDispatched, wantCanceled)
	}
	if out.speculations != 1 || out.redispatches != 0 {
		t.Fatalf("speculations %d, redispatches %d, want 1 and 0", out.speculations, out.redispatches)
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
		memo:      []uint64{10, 10, 10},
	}
	out, err := model.schedule(in, Faults{Stalled: []int{0}, StallFactor: 1e4, Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	var canceled []int
	for ci, c := range out.copies {
		if c.canceled {
			canceled = append(canceled, ci)
		}
	}
	if out.speculations != 2 || len(out.copies) != 5 || !reflect.DeepEqual(canceled, []int{0, 4}) {
		t.Fatalf("expected two races lost by copies 0 and 4: %d speculations, copies %+v", out.speculations, out.copies)
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

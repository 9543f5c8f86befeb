package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpq"
	"mpq/internal/partition"
	"mpq/internal/wire"
	"mpq/internal/workload"
)

// TestAbandonedWireRequestStops: a Client that gives up on a request
// tells the daemon, which stops computing it. On a one-dispatcher
// daemon, a job of at least 100 ms abandoned 5 ms after it was sent
// must not hold the dispatcher: a 6-table request sent next on the same
// client completes in under a quarter of the job's solo time. A daemon
// that kept computing the abandoned job would make the small request
// wait for nearly all of it.
func TestAbandonedWireRequestStops(t *testing.T) {
	s := startServer(t, Config{Dispatchers: 1})
	c, err := Dial(s.WireAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1}

	// Star linear-18 takes 120–180 ms alone on a 2-core Xeon VM; a
	// faster machine gets a larger star.
	var big *mpq.Query
	var solo time.Duration
	for n := 18; n <= 21 && solo < 100*time.Millisecond; n++ {
		big = workload.MustGenerate(workload.NewParams(n, workload.Star), 1)
		start := time.Now()
		if _, err := c.Optimize(context.Background(), big, js); err != nil {
			t.Fatal(err)
		}
		solo = time.Since(start)
	}
	if solo < 100*time.Millisecond {
		t.Skipf("the largest job took %v alone; the check needs one of at least 100 ms", solo)
	}

	// A cancel, not a deadline: the client bounds its request write by
	// the context's deadline, and 5 ms is no bound for a loaded machine.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	if _, err := c.Optimize(ctx, big, js); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned job: %v, want it canceled", err)
	}
	start := time.Now()
	if _, err := c.Optimize(context.Background(), testQuery(t, 6, 2), js); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	t.Logf("job alone %v; 6-table request after the abandoned job %v", solo, took)
	if took >= solo/4 {
		t.Fatalf("a 6-table request after an abandoned job took %v, the job alone %v: the daemon kept computing it", took, solo)
	}
}

// TestWireCancelQueuedAndRunning: a CancelRequest reaches a request
// wherever it is. One for a running request aborts the engine call; one
// for a request still in the queue means the engine is never called
// for it. Both are answered WorkerError{ErrCanceled}, and the
// connection then serves a new request.
func TestWireCancelQueuedAndRunning(t *testing.T) {
	eng := &gatedEngine{inner: mpq.NewSerialEngine(), gate: make(chan struct{}), started: make(chan struct{}, 4)}
	s := startServer(t, Config{Engine: eng, Dispatchers: 1})
	conn, br := wireConn(t, s)
	q := testQuery(t, 5, 1)
	js := mpq.JobSpec{Space: partition.Linear, Workers: 1}
	send := func(frame []byte) {
		t.Helper()
		if err := wire.WriteFramed(conn, frame); err != nil {
			t.Fatal(err)
		}
	}

	send(wire.JobRequestFrame(&wire.JobRequest{Seq: 1, Spec: js, Query: q}))
	<-eng.started // seq 1 runs, held at the gate
	send(wire.JobRequestFrame(&wire.JobRequest{Seq: 2, Spec: js, Query: q}))
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 1
	})
	send(wire.CancelRequestFrame(&wire.CancelRequest{Seq: 2}))
	send(wire.CancelRequestFrame(&wire.CancelRequest{Seq: 1}))
	for _, want := range []uint32{1, 2} { // the running one first: the queued one waits for the dispatcher
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reply to canceled seq %d: %v", want, err)
		}
		we, err := wire.DecodeWorkerError(payload)
		if err != nil {
			t.Fatalf("reply to canceled seq %d is not a WorkerError: %v", want, err)
		}
		if we.Seq != want || we.Code != wire.ErrCanceled {
			t.Fatalf("reply seq %d code %v, want seq %d code %v", we.Seq, we.Code, want, wire.ErrCanceled)
		}
	}
	if n := len(eng.started); n != 0 {
		t.Fatalf("the engine was called %d times for the request canceled in the queue", n)
	}

	close(eng.gate)
	resp, err := wire.DecodeJobResponse(roundTrip(t, conn, br, &wire.JobRequest{Seq: 3, Spec: js, Query: q}))
	if err != nil {
		t.Fatalf("request after the cancels: %v", err)
	}
	if resp.Seq != 3 || len(resp.Plans) == 0 {
		t.Fatalf("request after the cancels: seq %d with %d plans", resp.Seq, len(resp.Plans))
	}
}

package netrun

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/wire"
)

// A speculative loser can finish just before its cancel arrives, so a
// long-lived connection sees cancels for sequence numbers it already
// answered. They must be dropped, not remembered: remembered, they fill
// the bounded map and a later read-ahead cancel — one that overtook its
// own request — is lost, and that request runs to completion.
func TestSeqCancelsDropStaleCancels(t *testing.T) {
	s := &seqCancels{live: map[uint32]context.CancelCauseFunc{}, canceled: map[uint32]bool{}}
	var seq uint32
	for range 2000 {
		seq++
		_, stop := s.begin(context.Background(), seq)
		s.end(seq)
		stop()
		s.cancel(seq)
	}
	if len(s.canceled) != 0 {
		t.Fatalf("%d stale cancels remembered, want none", len(s.canceled))
	}

	// The cancel for the next request arrives ahead of the request.
	s.cancel(seq + 1)
	ctx, stop := s.begin(context.Background(), seq+1)
	defer stop()
	if ctx.Err() == nil {
		t.Fatal("a cancel that overtook its request did not pre-cancel it")
	}
	s.end(seq + 1)
	if len(s.canceled) != 0 {
		t.Fatalf("%d cancels left after the request began, want none", len(s.canceled))
	}
}

// TestPipelinedFramesInOneWrite: three requests that reach a worker in
// one segment are all answered, in order. The worker reads through one
// buffer for the connection's life; a reader rebuilt per frame would
// lose the two frames read ahead with the first and never answer them.
func TestPipelinedFramesInOneWrite(t *testing.T) {
	addr := startWorkers(t, 1)[0]
	q := gen(t, 5, 3)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	var batch bytes.Buffer
	for seq := uint32(1); seq <= 3; seq++ {
		req := &wire.JobRequest{Seq: seq, Spec: core.JobSpec{Space: partition.Linear, Workers: 1}, Query: q}
		if err := wire.WriteFrame(&batch, wire.EncodeJobRequest(req)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for seq := uint32(1); seq <= 3; seq++ {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("reply %d of 3: %v", seq, err)
		}
		resp, err := wire.DecodeJobResponse(payload)
		if err != nil {
			t.Fatalf("reply %d is not a JobResponse: %v", seq, err)
		}
		if resp.Seq != seq {
			t.Fatalf("reply %d carries Seq %d", seq, resp.Seq)
		}
	}
}

// TestWorkerWriteDeadlineDropsStuckPeer: a peer that pipelines requests
// and never reads a reply loses its connection within the write
// deadline, and the worker goes on serving other connections. net.Pipe
// has no buffering, so the first reply's write blocks at once; a worker
// writing without a deadline would hold the connection forever.
func TestWorkerWriteDeadlineDropsStuckPeer(t *testing.T) {
	const deadline = 200 * time.Millisecond
	w, err := listenWorker("127.0.0.1:0", deadline)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	peer, srv := net.Pipe()
	defer peer.Close()
	w.ServeConn(srv)

	spec := core.JobSpec{Space: partition.Linear, Workers: 1}
	q := gen(t, 6, 1)
	torn := make(chan struct{})
	go func() { // pipelines requests until the worker hangs up
		defer close(torn)
		for seq := uint32(1); ; seq++ {
			if err := wire.WriteFramed(peer, wire.JobRequestFrame(&wire.JobRequest{Seq: seq, Spec: spec, Query: q})); err != nil {
				return
			}
		}
	}()
	select {
	case <-torn:
	case <-time.After(deadline + 5*time.Second):
		t.Fatalf("the worker kept a connection whose peer never reads; write deadline %v", deadline)
	}

	conn, err := net.DialTimeout("tcp", w.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFramed(conn, wire.JobRequestFrame(&wire.JobRequest{Seq: 1, Spec: spec, Query: q})); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("another connection after the stuck one: %v", err)
	}
	if resp, err := wire.DecodeJobResponse(payload); err != nil || len(resp.Plans) == 0 {
		t.Fatalf("another connection after the stuck one: %+v, %v", resp, err)
	}
}

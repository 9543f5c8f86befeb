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
	s := &seqCancels{canceled: map[uint32]bool{}}
	var seq uint32
	for range 2000 {
		seq++
		_, stop := s.begin(context.Background(), seq)
		s.end()
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
	s.end()
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

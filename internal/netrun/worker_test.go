package netrun

import (
	"context"
	"testing"
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

package netrun

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
	"mpq/internal/wire"
)

// FuzzClientReplies feeds a Client a fuzzed reply stream over net.Pipe
// while four calls are pending and a fifth, Seq 2, is abandoned. The
// stream holds responses, worker errors, duplicated and unknown Seqs,
// truncated frames and garbage. Whatever it holds, nothing panics, and
// every pending call ends exactly once: with an answer, a remote error,
// or the connection's error when the stream breaks or ends, or a Seq-0
// refusal arrives with more than one call pending; no reply to
// a call that ends with the connection's error went stray before. The
// abandoned call ends never: a reply to its Seq is a stray. Close then
// returns, with the read loop gone.
func FuzzClientReplies(f *testing.F) {
	resp := func(seq uint32) []byte { return wire.JobResponseFrame(&wire.JobResponse{Seq: seq}) }
	refuse := func(seq uint32, code wire.ErrCode) []byte {
		return wire.WorkerErrorFrame(&wire.WorkerError{Seq: seq, Code: code, Msg: "refused"})
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add(cat(resp(1), resp(2), resp(3), resp(4), resp(5)))                               // all answered, 2 a stray
	f.Add(cat(resp(2), resp(3), resp(3), resp(9), refuse(1, wire.ErrJobFailed)))          // duplicate, unknown Seq
	f.Add(cat(refuse(0, wire.ErrBadRequest), refuse(4, wire.ErrCanceled), resp(5)))       // a Seq-0 refusal: fails them all
	f.Add(cat(resp(1), resp(4)[:9]))                                                      // truncated
	f.Add(cat(resp(3), []byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}, resp(4)))                  // garbage
	f.Add(cat(resp(5), refuse(2, wire.ErrOverloaded), []byte{0xff, 0xff, 0xff, 0xff, 1})) // a lying length prefix

	req := &wire.JobRequest{Spec: core.JobSpec{Space: partition.Linear, Workers: 1}, Query: gen(f, 3, 1)}
	f.Fuzz(func(t *testing.T, stream []byte) {
		mine, peer := net.Pipe()
		var mu sync.Mutex
		var strays []uint32
		c := NewClient(mine)
		c.reportStrays(func(seq uint32, _ int) {
			mu.Lock()
			strays = append(strays, seq)
			mu.Unlock()
		})
		go io.Copy(io.Discard, peer) // the requests and the cancel

		calls := make([]Call, 5)
		for i := range calls {
			var err error
			if calls[i], err = c.Send(context.Background(), req); err != nil {
				t.Fatalf("send %d: %v", i+1, err)
			}
		}
		const abandoned = 1 // Seq 2
		c.Abandon(calls[abandoned].Seq)
		peer.Write(stream) // fails once the read loop quits on a bad frame
		peer.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		failed := make([]bool, len(calls)) // ended with the connection's error
		for i, call := range calls {
			if i == abandoned {
				continue
			}
			r, err := c.Wait(ctx, call)
			failed[i] = err != nil
			switch {
			case ctx.Err() != nil:
				t.Fatalf("call %d never ended", call.Seq)
			case err == nil && (r.Resp == nil) == (r.Remote == nil):
				t.Fatalf("call %d ended with %+v", call.Seq, r)
			case err == nil && r.Resp != nil && r.Resp.Seq != call.Seq:
				t.Fatalf("call %d got the answer to %d", call.Seq, r.Resp.Seq)
			case err != nil && c.failed() == nil:
				t.Fatalf("call %d failed with %v on a live connection", call.Seq, err)
			}
			select {
			case _, ok := <-call.ch:
				if ok || err == nil { // a second reply, or a reply and then the connection's error
					t.Fatalf("call %d ended twice (a second reply: %v)", call.Seq, ok)
				}
			default:
			}
		}
		select {
		case r, ok := <-calls[abandoned].ch:
			t.Fatalf("the abandoned call ended (reply %+v, %v): its Seq was forgotten", r, ok)
		default:
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-c.done:
		default:
			t.Fatal("Close returned with the read loop running")
		}
		mu.Lock()
		defer mu.Unlock()
		for _, seq := range strays {
			if seq >= 1 && seq <= uint32(len(calls)) && failed[seq-1] {
				t.Fatalf("a reply to call %d went stray while it was pending", seq)
			}
		}
	})
}

// A Seq-0 refusal — the peer could not read some request's Seq — with
// several calls pending cannot be matched to one of them: the
// connection fails with the refusal, so no call waits on a reply that
// will not come, not even under a context that never ends.
func TestSeqZeroRefusalFailsPipelinedCalls(t *testing.T) {
	mine, peer := net.Pipe()
	c := NewClient(mine)
	defer c.Close()
	go io.Copy(io.Discard, peer)
	req := &wire.JobRequest{Spec: core.JobSpec{Space: partition.Linear, Workers: 1}, Query: gen(t, 3, 1)}
	calls := make([]Call, 4)
	for i := range calls {
		var err error
		if calls[i], err = c.Send(context.Background(), req); err != nil {
			t.Fatalf("send %d: %v", i+1, err)
		}
	}
	go peer.Write(wire.WorkerErrorFrame(&wire.WorkerError{Code: wire.ErrBadRequest, Msg: "decode: bad header"}))

	errs := make(chan error, len(calls))
	for _, call := range calls {
		go func() {
			_, err := c.Wait(context.Background(), call)
			errs <- err
		}()
	}
	timeout := time.After(time.Second)
	for range calls {
		select {
		case err := <-errs:
			var we *wire.WorkerError
			if !errors.As(err, &we) || we.Code != wire.ErrBadRequest {
				t.Fatalf("Wait = %v, want the Seq-0 refusal", err)
			}
		case <-timeout:
			t.Fatal("a call still waits 1 s after the Seq-0 refusal")
		}
	}
}
